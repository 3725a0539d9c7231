//! Regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--jobs N] [--csv DIR] [--json FILE] [--timings FILE]
//!       [--trace FILE] [--fuzz-budget N]
//!       [--store DIR [--resume]] [--timeout SECS] [--allow-partial]
//!       [--list | --all | --fig N | --table 1 | --ext | --validate
//!        | --only NAME[,NAME]]
//! ```
//!
//! Selection goes through the experiment registry
//! ([`interference::experiments::all_experiments`]): `--list` prints every
//! registered experiment with its paper anchor and sweep size, `--only`
//! picks experiments by registry name, `--fig N` accepts 1–10 (all
//! sub-figures of N are produced). `--jobs N` runs the campaign's sweep
//! points on N worker threads — results are byte-identical to `--jobs 1`
//! because every point's seed derives from (experiment, point index), not
//! from execution order.
//!
//! Output is a textual report: simulated medians with first/last-decile
//! bands, the paper's reference values as notes, PASS/FAIL qualitative
//! checks, and a campaign timing summary.
//!
//! `--validate` runs the simcheck validation campaign instead of the paper
//! figures: closed-form oracles on every cluster preset, metamorphic
//! invariants over random fluid scenarios, and the differential scenario
//! fuzzer (`--fuzz-budget N` overrides the scenario count; failing scripts
//! are shrunk and printed, and also written to `$SIMCHECK_FAILURE_DIR` when
//! that variable is set). Like every other run, a failing check exits 1 —
//! `scripts/verify.sh` and CI gate on it.
//!
//! `--trace FILE` enables the deterministic telemetry layer and writes the
//! merged campaign journal as Chrome trace-event JSON — open it in
//! `chrome://tracing` or <https://ui.perfetto.dev>. The journal is keyed to
//! sim-time only, so the file is byte-identical at any `--jobs` level.
//!
//! `--store DIR` persists every completed sweep point to a crash-consistent
//! on-disk result store as it finishes; `--resume` restores previously
//! persisted points instead of recomputing them, so a campaign killed
//! mid-flight picks up where it left off — with exports byte-identical to
//! an uninterrupted run (point seeds derive from the plan, never from
//! execution order or wall time). Corrupt or torn entries are detected by
//! checksum, quarantined, and recomputed — never served. A restored point
//! has no journal, so with `--trace` nothing is restored: every point is
//! recomputed (and still persisted), and a stderr note says so.
//!
//! `--timeout SECS` arms a per-point wall-clock deadline: a wedged point is
//! cooperatively cancelled at the next simulation event and recorded as
//! `TimedOut` instead of hanging the campaign. A timed-out point is never
//! persisted, so a later `--resume` recomputes it. A campaign that completes
//! partial (any failed or timed-out point, or a finalizer that could not
//! produce its figures) exits 3 unless `--allow-partial` is passed.
//!
//! `--validate` also runs the prediction-accuracy campaign (cross-validated
//! counter→slowdown error and held-out placement ranking gated against
//! `PREDICT_baseline.json`); `--predict-check` runs only that campaign —
//! the dedicated CI predict job's entry point.
//!
//! Two subcommands query the placement advisor directly (see
//! EXPERIMENTS.md):
//!
//! ```text
//! repro predict         --preset NAME --workload FAM --cores N --placement I
//!                       --metric bw|lat [--quick] [--jobs N]
//!                       [--store DIR [--resume]] [--ground-truth]
//! repro rank-placements --preset NAME --workload FAM --cores N
//!                       --metric bw|lat [--quick] [--jobs N]
//!                       [--store DIR [--resume]] [--ground-truth]
//! ```
//!
//! Both harvest the training grid (excluding every pair that co-ran the
//! queried workload family on the queried machine — the query is genuinely
//! unseen), train the advisor, and predict from the query's *alone* steps
//! only; the together step never executes unless `--ground-truth` asks for
//! the reference measurement.
//!
//! Exit codes: 0 success, 1 failed qualitative checks, 2 usage error,
//! 3 partial campaign without `--allow-partial`.

use std::path::Path;
use std::time::{Duration, Instant};

use interference::campaign::{
    CampaignOptions, CampaignReport, Experiment, ExperimentRun, StoreCtx,
};
use interference::experiments::contention::Metric;
use interference::experiments::harvest::Family;
use interference::experiments::validation::Validate;
use interference::experiments::{self, Fidelity};
use interference::store::{ResultStore, StoreStats};
use topology::presets::Preset;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--jobs N] [--csv DIR] [--json FILE] [--timings FILE]\n\
         \x20            [--trace FILE] [--fuzz-budget N]\n\
         \x20            [--store DIR [--resume]] [--timeout SECS] [--allow-partial]\n\
         \x20            [--list | --all | --fig N | --table 1 | --ext | --validate\n\
         \x20             | --predict-check | --only NAME[,NAME]]\n\
         \x20      repro predict         --preset NAME --workload FAM --cores N\n\
         \x20            --placement I --metric bw|lat [--quick] [--jobs N]\n\
         \x20            [--store DIR [--resume]] [--ground-truth]\n\
         \x20      repro rank-placements --preset NAME --workload FAM --cores N\n\
         \x20            --metric bw|lat [--quick] [--jobs N]\n\
         \x20            [--store DIR [--resume]] [--ground-truth]"
    );
    std::process::exit(2);
}

/// Write an export atomically (temp + rename): an interrupted run leaves
/// either the previous artifact or the new one, never a truncated file.
fn export(path: &str, bytes: &[u8], what: &str) {
    if let Err(e) = interference::atomic_write(Path::new(path), bytes) {
        eprintln!("error: failed to write {} {}: {}", what, path, e);
        std::process::exit(1);
    }
}

/// What `repro` was asked to do.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Mode {
    /// Run experiments from the registry (no subcommand).
    #[default]
    Campaign,
    /// `repro predict`: one placement's predicted penalty.
    Predict,
    /// `repro rank-placements`: every placement, best first.
    Rank,
}

/// Every flag of every mode. `--quick`, `--jobs`, `--store` and `--resume`
/// are shared; the rest belong to one side, and the other side rejects
/// them as unknown.
#[derive(Default)]
struct Args {
    mode: Mode,
    quick: bool,
    jobs: usize,
    store_dir: Option<String>,
    resume: bool,
    csv_dir: Option<String>,
    json_path: Option<String>,
    timings_path: Option<String>,
    trace_path: Option<String>,
    timeout: Option<Duration>,
    fuzz_budget: Option<usize>,
    allow_partial: bool,
    list: bool,
    select: Option<String>,
    only: Vec<String>,
    ground_truth: bool,
    preset: Option<Preset>,
    family: Option<Family>,
    cores: Option<u32>,
    placement: Option<usize>,
    metric: Option<Metric>,
}

impl Args {
    fn fidelity(&self) -> Fidelity {
        if self.quick {
            Fidelity::Quick
        } else {
            Fidelity::Full
        }
    }
}

/// Parse `s` as a `T` accepted by `ok`, or exit with usage.
fn num<T: std::str::FromStr>(s: String, ok: impl Fn(&T) -> bool) -> T {
    s.parse().ok().filter(ok).unwrap_or_else(|| usage())
}

/// Reject a flag value that names no known `what`.
fn unknown(what: &str, got: &str, expected: &str) -> ! {
    eprintln!("unknown {}: {} (expected one of {})", what, got, expected);
    usage()
}

/// The one argv parser: an optional subcommand, then flags.
fn parse(argv: Vec<String>) -> Args {
    let mut it = argv.into_iter().peekable();
    let mode = match it.peek().map(String::as_str) {
        Some("predict") => Mode::Predict,
        Some("rank-placements") => Mode::Rank,
        _ => Mode::Campaign,
    };
    if mode != Mode::Campaign {
        it.next();
    }
    let mut a = Args {
        mode,
        jobs: 1,
        ..Args::default()
    };
    while let Some(flag) = it.next() {
        let shared = matches!(flag.as_str(), "--quick" | "--jobs" | "--store" | "--resume");
        let advisor = matches!(
            flag.as_str(),
            "--ground-truth" | "--preset" | "--workload" | "--cores" | "--placement" | "--metric"
        );
        if !shared && advisor == (mode == Mode::Campaign) {
            eprintln!("unknown argument: {}", flag);
            usage();
        }
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--quick" => a.quick = true,
            "--jobs" => a.jobs = num(value(), |&n| n >= 1),
            "--store" => a.store_dir = Some(value()),
            "--resume" => a.resume = true,
            "--list" => a.list = true,
            "--csv" => a.csv_dir = Some(value()),
            "--json" => a.json_path = Some(value()),
            "--timings" => a.timings_path = Some(value()),
            "--trace" => a.trace_path = Some(value()),
            "--timeout" => {
                let secs: f64 = num(value(), |s: &f64| s.is_finite() && *s > 0.0);
                a.timeout = Some(Duration::from_secs_f64(secs));
            }
            "--allow-partial" => a.allow_partial = true,
            "--all" => a.select = None,
            "--ext" | "--validate" | "--predict-check" => a.select = Some(flag[2..].to_string()),
            "--fuzz-budget" => a.fuzz_budget = Some(num(value(), |&n| n >= 1)),
            "--fig" | "--table" => a.select = Some(format!("{}{}", &flag[2..], value())),
            "--only" => a
                .only
                .extend(value().split(',').map(|s| s.trim().to_string())),
            "--ground-truth" => a.ground_truth = true,
            "--preset" => {
                let name = value();
                let found = Preset::clusters()
                    .into_iter()
                    .find(|p| p.spec().name == name);
                let all = || Preset::clusters().map(|p| p.spec().name).join(", ");
                a.preset = Some(found.unwrap_or_else(|| unknown("preset", &name, &all())));
            }
            "--workload" => {
                let tag = value();
                let all = || Family::all().map(|f| f.tag()).join(", ");
                let found = Family::from_tag(&tag);
                a.family = Some(found.unwrap_or_else(|| unknown("workload family", &tag, &all())));
            }
            "--cores" => a.cores = Some(num(value(), |_| true)),
            "--placement" => {
                let n = topology::Placement::all_combinations().len();
                a.placement = Some(num(value(), |&p| p < n));
            }
            "--metric" => {
                a.metric = match value().as_str() {
                    "bw" => Some(Metric::Bandwidth),
                    "lat" => Some(Metric::Latency),
                    _ => usage(),
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {}", other);
                usage();
            }
        }
    }
    a
}

/// Open the `--store` directory, if one was given; `--resume` without one
/// is a usage error.
fn open_store(a: &Args) -> Option<ResultStore> {
    if a.resume && a.store_dir.is_none() {
        eprintln!("--resume requires --store DIR");
        usage();
    }
    a.store_dir.as_ref().map(|dir| {
        ResultStore::open(dir).unwrap_or_else(|e| {
            eprintln!("error: cannot open result store {}: {}", dir, e);
            std::process::exit(1);
        })
    })
}

fn main() {
    let a = parse(std::env::args().skip(1).collect());
    match a.mode {
        Mode::Campaign => campaign_cli(&a),
        Mode::Predict | Mode::Rank => predict_cli(&a),
    }
}

/// The campaign mode: run the selected experiments, render and export.
fn campaign_cli(a: &Args) {
    if a.list {
        print_list();
        return;
    }
    let store = open_store(a);
    if a.resume && a.trace_path.is_some() {
        // Restored points carry no journal (campaign::execute_point).
        eprintln!("note: --trace records every point, so --resume restores none: all points are recomputed");
    }

    let validate = Validate {
        fuzz_budget: a.fuzz_budget,
    };
    let exps = selected_experiments(a.select.as_deref(), &a.only, &validate);
    let opts = CampaignOptions::new(a.fidelity(), a.jobs)
        .with_telemetry(a.trace_path.is_some())
        .with_timeout(a.timeout);
    let t0 = Instant::now();
    let ctx = store.as_ref().map(|s| StoreCtx {
        store: s,
        resume: a.resume,
    });
    let (runs, report) = interference::campaign::run_set_with_store(&exps, &opts, ctx);
    let wall = t0.elapsed();

    if let Some(path) = &a.trace_path {
        let journal = report.journal.as_ref().expect("telemetry was enabled");
        export(path, journal.to_chrome_json().as_bytes(), "trace");
        println!(
            "(chrome trace written to {}: {} records across {} categories)",
            path,
            journal.records.len(),
            journal.categories().len()
        );
    }

    let mut failed = 0;
    let mut figs = Vec::new();
    for run in runs.iter() {
        for f in &run.figures {
            print!("{}", f.render());
            println!();
            failed += f.checks.iter().filter(|c| !c.pass).count();
            if let Some(dir) = &a.csv_dir {
                std::fs::create_dir_all(dir).expect("create csv dir");
                let path = format!("{}/{}.csv", dir, f.id);
                export(&path, f.to_csv().as_bytes(), "csv");
                println!("   (csv written to {})", path);
            }
        }
        figs.extend(run.figures.iter());
    }
    if let Some(path) = &a.json_path {
        let owned: Vec<_> = runs.iter().flat_map(|r| r.figures.clone()).collect();
        export(
            path,
            interference::results::figures_to_json(&owned).as_bytes(),
            "json",
        );
        println!("(json written to {})", path);
    }

    let store_stats = store.as_ref().map(|s| s.stats());
    let digest = Digest::of(&runs, &report);
    let wall_s = wall.as_secs_f64();
    print_timings(
        &runs,
        &report,
        store_stats.as_ref(),
        &digest,
        a.jobs,
        wall_s,
    );
    if let Some(path) = &a.timings_path {
        let json = timings_json(&runs, &report, store_stats.as_ref(), &digest, a, wall_s);
        export(path, json.as_bytes(), "timings");
        println!("(timings written to {})", path);
    }

    let partial = runs.iter().any(|r| r.is_partial());
    let total: usize = figs.iter().map(|f| f.checks.len()).sum();
    println!(
        "== summary: {}/{} qualitative checks passed across {} figures/tables{} ==",
        total - failed,
        total,
        figs.len(),
        if partial { " (PARTIAL)" } else { "" }
    );
    for r in runs.iter().filter(|r| r.is_partial()) {
        eprintln!(
            "partial: {} ({} failed, {} timed out{})",
            r.name,
            r.failed_points,
            r.timed_out_points,
            match &r.finalize_error {
                Some(e) => format!("; finalize: {}", e),
                None => String::new(),
            }
        );
    }
    if failed > 0 {
        std::process::exit(1);
    }
    if partial && !a.allow_partial {
        eprintln!("campaign completed partial; pass --allow-partial to exit 0");
        std::process::exit(3);
    }
}

/// Resolve the CLI selection to registry entries.
fn selected_experiments<'a>(
    select: Option<&str>,
    only: &[String],
    validate: &'a Validate,
) -> Vec<&'a dyn Experiment> {
    if !only.is_empty() {
        return only
            .iter()
            .map(|name| {
                experiments::find(name).unwrap_or_else(|| {
                    eprintln!("unknown experiment: {} (try --list)", name);
                    usage();
                })
            })
            .collect();
    }
    match select {
        None => experiments::PAPER_EXPERIMENTS.to_vec(),
        Some("ext") => experiments::EXTENSION_EXPERIMENTS.to_vec(),
        Some("validate") => vec![validate, predict::accuracy::ACCURACY_EXPERIMENT],
        Some("predict-check") => vec![predict::accuracy::ACCURACY_EXPERIMENT],
        Some(name) => match experiments::find(name) {
            Some(e) => vec![e],
            None => {
                eprintln!("unknown selection: {} (try --list)", name);
                usage();
            }
        },
    }
}

/// `repro predict` / `repro rank-placements`: train the placement advisor
/// on harvested pairs that exclude the queried (preset, workload family)
/// — the query is a pair the model has never seen co-run — then predict
/// from the query's alone steps only.
fn predict_cli(a: &Args) {
    use interference::experiments::harvest::{self, PairSpec};
    use predict::advisor::{default_params, Advisor};

    let (Some(preset), Some(family), Some(cores), Some(metric)) =
        (a.preset, a.family, a.cores, a.metric)
    else {
        eprintln!("--preset, --workload, --cores and --metric are required");
        usage();
    };
    let single_placement = a.mode == Mode::Predict;
    if single_placement && a.placement.is_none() {
        eprintln!("repro predict requires --placement I (0..{})", topology::Placement::all_combinations().len());
        usage();
    }
    let (fidelity, ground_truth, placement) =
        (a.fidelity(), a.ground_truth, a.placement.unwrap_or(0));
    let query = PairSpec {
        preset,
        placement,
        family,
        cores,
        metric,
    };

    // Harvest the training grid, minus every pair that co-ran the queried
    // family on the queried machine.
    let store = open_store(a);
    let opts = CampaignOptions::new(fidelity, a.jobs);
    let ctx = store.as_ref().map(|s| StoreCtx {
        store: s,
        resume: a.resume,
    });
    let t0 = Instant::now();
    let outcomes = interference::campaign::run_outcomes_with_store(
        experiments::HARVEST_EXPERIMENT,
        &opts,
        ctx,
    );
    let all_pairs = harvest::collect_pairs(&outcomes);
    let harvest_wall = t0.elapsed();
    let params = default_params();
    let Some(advisor) = Advisor::train_excluding(&all_pairs, &params, |s| {
        !(s.preset == preset && s.family == family)
    }) else {
        eprintln!("error: harvest produced no training pairs");
        std::process::exit(1);
    };
    let trained = all_pairs
        .iter()
        .filter(|p| !(p.spec.preset == preset && p.spec.family == family))
        .count();
    println!(
        "advisor: trained on {} pair(s) in {:.2} s (held out {}:{}; harvest {:?} fidelity)",
        trained,
        t0.elapsed().as_secs_f64(),
        preset.spec().name,
        family.tag(),
        fidelity
    );
    println!(
        "   harvest {:.2} s, {} point(s){}",
        harvest_wall.as_secs_f64(),
        outcomes.len(),
        match outcomes.iter().filter(|o| o.restored).count() {
            0 => String::new(),
            n => format!(" ({} restored from store)", n),
        }
    );
    println!();

    if single_placement {
        let (comm, compute) = advisor.predict_spec(&query, fidelity).unwrap_or_else(|e| {
            eprintln!("error: prediction failed: {}", e);
            std::process::exit(1);
        });
        println!("query: {}", query.label());
        println!(
            "   predicted co-location penalty: comm {:.3}x, compute {:.3}x, combined {:.3}x",
            comm,
            compute,
            comm * compute
        );
        println!("   (predicted from the alone steps only; the together step never ran)");
        if ground_truth {
            let gt = harvest::measure_pair_direct(&query, fidelity).unwrap_or_else(|e| {
                eprintln!("error: ground-truth measurement failed: {}", e);
                std::process::exit(1);
            });
            let err = |p: f64, t: f64| (p - t).abs() / t * 100.0;
            println!(
                "   ground truth:                  comm {:.3}x, compute {:.3}x, combined {:.3}x",
                gt.comm_penalty,
                gt.compute_penalty,
                gt.comm_penalty * gt.compute_penalty
            );
            println!(
                "   absolute relative error:       comm {:.1}%, compute {:.1}%, combined {:.1}%",
                err(comm, gt.comm_penalty),
                err(compute, gt.compute_penalty),
                err(comm * compute, gt.comm_penalty * gt.compute_penalty)
            );
        }
        return;
    }

    let ranked = advisor.rank_placements(&query, fidelity).unwrap_or_else(|e| {
        eprintln!("error: ranking failed: {}", e);
        std::process::exit(1);
    });
    println!(
        "rank-placements: {}:{} c{} {} — {} candidates, best first",
        preset.spec().name,
        family.tag(),
        cores,
        metric.tag(),
        ranked.len()
    );
    let truths: Vec<Option<harvest::TrainingPair>> = if ground_truth {
        ranked
            .iter()
            .map(|r| {
                harvest::measure_pair_direct(
                    &PairSpec {
                        placement: r.placement,
                        ..query
                    },
                    fidelity,
                )
                .ok()
            })
            .collect()
    } else {
        vec![None; ranked.len()]
    };
    for (rank, (r, truth)) in ranked.iter().zip(&truths).enumerate() {
        print!(
            "   #{} placement {} ({:<22}) predicted comm {:.3}x compute {:.3}x combined {:.3}x",
            rank + 1,
            r.placement,
            r.label,
            r.comm,
            r.compute,
            r.combined
        );
        match truth {
            Some(t) => println!(
                "   truth {:.3}x",
                t.comm_penalty * t.compute_penalty
            ),
            None => println!(),
        }
    }
    if ground_truth {
        let pairs: Vec<(f64, f64)> = ranked
            .iter()
            .zip(&truths)
            .filter_map(|(r, t)| {
                t.as_ref()
                    .map(|t| (r.combined, t.comm_penalty * t.compute_penalty))
            })
            .collect();
        if pairs.len() == ranked.len() {
            let best_true = pairs
                .iter()
                .map(|(_, t)| *t)
                .fold(f64::MAX, f64::min);
            let picked_true = pairs[0].1;
            println!(
                "   predicted-best regret vs ground-truth best: {:.1}%",
                (picked_true / best_true - 1.0) * 100.0
            );
        }
    }
}

/// `--list`: every registered experiment with anchor and sweep sizes.
fn print_list() {
    let (name, full, quick, anchor) = ("name", "full", "quick", "paper anchor");
    println!("{:<18} {:>6} {:>6}  {}", name, full, quick, anchor);
    for e in experiments::all_experiments() {
        println!(
            "{:<18} {:>6} {:>6}  {}",
            e.name(),
            e.plan(Fidelity::Full).len(),
            e.plan(Fidelity::Quick).len(),
            e.anchor()
        );
    }
}

/// The timing digest, derived once and rendered by both the text summary
/// and `--timings`: campaign busy time, engine throughput and the
/// collective fast paths. Journal counters read 0 without `--trace`; the
/// schedule cache is process-global, so it is always available.
struct Digest {
    busy_s: f64,
    events: u64,
    instants: u64,
    inserts: u64,
    cancels: u64,
    probes: u64,
    bin_hits: u64,
    route_hits: u64,
    waterfill: u64,
    cache: mpisim::collective::CacheStats,
}

impl Digest {
    fn of(runs: &[ExperimentRun], report: &CampaignReport) -> Digest {
        let c = |name: &str| {
            report
                .journal
                .as_ref()
                .and_then(|j| j.counters.get(name).copied())
                .unwrap_or(0)
        };
        Digest {
            busy_s: runs.iter().map(|r| r.busy.as_secs_f64()).sum(),
            events: c("engine.events"),
            instants: c("engine.queue.batch_instants"),
            inserts: c("engine.queue.inserts"),
            cancels: c("engine.queue.cancels"),
            probes: c("mpi.match.probes"),
            bin_hits: c("mpi.match.bin_hit"),
            route_hits: c("net.route.intern_hit"),
            waterfill: c("fluid.waterfill"),
            cache: mpisim::collective::cache_stats(),
        }
    }

    /// Events per second of busy time.
    fn events_per_s(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.events as f64 / self.busy_s
        } else {
            0.0
        }
    }

    /// Allocator passes same-instant batching saved vs one per event.
    fn passes_saved(&self) -> u64 {
        self.events.saturating_sub(self.instants)
    }
}

/// Campaign timing summary: per-experiment busy time and throughput, plus
/// a telemetry section (cache statistics; journal size when recording) and
/// a durability section when a result store is bound.
fn print_timings(
    runs: &[ExperimentRun],
    report: &CampaignReport,
    store: Option<&StoreStats>,
    d: &Digest,
    jobs: usize,
    wall_s: f64,
) {
    println!("== campaign timings ({} job(s)) ==", jobs);
    for r in runs {
        let mut flags = String::new();
        if r.failed_points > 0 {
            flags.push_str(&format!(" ({} FAILED)", r.failed_points));
        }
        if r.timed_out_points > 0 {
            flags.push_str(&format!(" ({} TIMED OUT)", r.timed_out_points));
        }
        if r.restored_points > 0 {
            flags.push_str(&format!(" ({} restored)", r.restored_points));
        }
        println!(
            "   {:<18} {:>3} point(s){} {:>8.2} s busy  {:>6.2} points/s{}",
            r.name,
            r.points,
            flags,
            r.busy.as_secs_f64(),
            r.points_per_sec(),
            if report.journal.is_some() {
                format!("  {:.3} s sim", r.sim.as_secs_f64())
            } else {
                String::new()
            }
        );
    }
    println!(
        "   total: {:.2} s wall, {:.2} s busy (utilisation {:.2}x)",
        wall_s,
        d.busy_s,
        if wall_s > 0.0 { d.busy_s / wall_s } else { 0.0 }
    );
    println!("== telemetry ==");
    println!(
        "   baselines: {} lookup(s), {} computed, {} cache hit(s)",
        report.baseline_calls,
        report.baseline_computed,
        report.baseline_calls - report.baseline_computed
    );
    match &report.journal {
        Some(j) => {
            println!(
                "   journal: {} record(s), {} counter(s), {} histogram(s), {:.3} s simulated",
                j.records.len(),
                j.counters.len(),
                j.samples.len(),
                j.end_time().as_secs_f64()
            );
            for (name, value) in &j.counters {
                println!("   counter {:<18} {}", name, value);
            }
            print_engine_throughput(d);
        }
        None => println!("   journal: disabled (enable with --trace FILE)"),
    }
    print_collective_path(d);
    if let Some(s) = store {
        println!("== result store ==");
        println!(
            "   {} persisted, {} restored (hit), {} miss(es), {} quarantined",
            s.persisted, s.hits, s.misses, s.quarantined
        );
        if s.quarantined > 0 {
            println!("   (quarantined entries were corrupt; recomputed, never served)");
        }
    }
    println!();
}

/// Engine-throughput digest: events processed and events/sec over
/// campaign busy time, same-instant batching effectiveness (allocator
/// passes saved vs one-pass-per-event) and timer-queue traffic.
fn print_engine_throughput(d: &Digest) {
    if d.events == 0 {
        return;
    }
    println!("== engine throughput ==");
    println!(
        "   {} event(s) processed, {:.0} events/s of busy time",
        d.events,
        d.events_per_s()
    );
    if d.instants > 0 {
        println!(
            "   {} batched instant(s), {:.2} events/instant: {} allocator pass(es) saved vs per-event",
            d.instants,
            d.events as f64 / d.instants as f64,
            d.passes_saved()
        );
    }
    println!(
        "   timer queue: {} insert(s), {} cancel(s)",
        d.inserts, d.cancels
    );
}

/// Collective fast-path digest: message-matching bin hits vs probe scans,
/// route-interning hits, waterfill fast-path engagements (all from the
/// journal, so they need `--trace`), and the schedule-memoization cache.
fn print_collective_path(d: &Digest) {
    if d.cache.hits + d.cache.misses == 0 && d.probes + d.route_hits + d.waterfill == 0 {
        return;
    }
    println!("== collective path ==");
    if d.probes > 0 {
        println!(
            "   matching: {} bin hit(s) in {} probe(s) ({:.2} probes/match)",
            d.bin_hits,
            d.probes,
            if d.bin_hits > 0 {
                d.probes as f64 / d.bin_hits as f64
            } else {
                0.0
            }
        );
    }
    if d.route_hits > 0 {
        println!("   routes: {} interned-path hit(s)", d.route_hits);
    }
    if d.cache.hits + d.cache.misses > 0 {
        println!(
            "   schedule cache: {} hit(s), {} miss(es) (built + proved once each)",
            d.cache.hits, d.cache.misses
        );
    }
    if d.waterfill > 0 {
        println!(
            "   waterfill: {} single-flow fast-path solve(s)",
            d.waterfill
        );
    }
}

/// Machine-readable timing record (`--timings FILE`).
fn timings_json(
    runs: &[ExperimentRun],
    report: &CampaignReport,
    store: Option<&StoreStats>,
    d: &Digest,
    a: &Args,
    wall_s: f64,
) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"fidelity\":\"{:?}\",\"jobs\":{},\"wall_s\":{:.3},\"partial\":{},\"experiments\":[",
        a.fidelity(),
        a.jobs,
        wall_s,
        runs.iter().any(|r| r.is_partial())
    ));
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"points\":{},\"failed_points\":{},\"timed_out_points\":{},\"restored_points\":{},\"busy_s\":{:.3},\"sim_s\":{:.6}}}",
            r.name,
            r.points,
            r.failed_points,
            r.timed_out_points,
            r.restored_points,
            r.busy.as_secs_f64(),
            r.sim.as_secs_f64()
        ));
    }
    out.push(']');
    if let Some(s) = store {
        out.push_str(&format!(
            ",\"store\":{{\"persisted\":{},\"hits\":{},\"misses\":{},\"quarantined\":{}}}",
            s.persisted, s.hits, s.misses, s.quarantined
        ));
    }
    out.push_str(",\"telemetry\":{");
    out.push_str(&format!(
        "\"enabled\":{},\"baseline_calls\":{},\"baseline_computed\":{}",
        report.journal.is_some(),
        report.baseline_calls,
        report.baseline_computed
    ));
    if let Some(j) = &report.journal {
        out.push_str(&format!(
            ",\"records\":{},\"sim_s\":{:.6},\"counters\":{{",
            j.records.len(),
            j.end_time().as_secs_f64()
        ));
        for (i, (name, value)) in j.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", name, value));
        }
        out.push('}');
        out.push_str(&format!(
            ",\"engine\":{{\"events\":{},\"events_per_busy_s\":{:.0},\"batch_instants\":{},\"allocator_passes_saved\":{},\"queue_inserts\":{},\"queue_cancels\":{}}}",
            d.events,
            d.events_per_s(),
            d.instants,
            d.passes_saved(),
            d.inserts,
            d.cancels,
        ));
    }
    out.push('}');
    out.push_str(&format!(
        ",\"collective\":{{\"match_probes\":{},\"match_bin_hits\":{},\"route_intern_hits\":{},\"schedule_cache_hits\":{},\"schedule_cache_misses\":{},\"waterfill_solves\":{}}}",
        d.probes,
        d.bin_hits,
        d.route_hits,
        d.cache.hits,
        d.cache.misses,
        d.waterfill,
    ));
    out.push_str("}\n");
    out
}
