//! `repro --validate` — the simcheck validation campaign.
//!
//! Not a paper figure and deliberately **not** in the experiment
//! registries (`--all` reproduces the paper; validation interrogates the
//! simulator itself). The driver folds simcheck's three layers into one
//! campaign plan:
//!
//! * one point per *(cluster preset × oracle family)* — closed-form
//!   expectations vs simulator runs (24 points);
//! * one point per *(fabric preset × collective oracle family)* — ring
//!   allreduce / tree bcast / alltoall closed forms and bounds at 8 henri
//!   ranks (9 points);
//! * one point per metamorphic invariant over a batch of random fluid
//!   scenarios (6 points), plus one per collective invariant over random
//!   collective schedules (3 points);
//! * the differential fuzz budget, chunked so the campaign engine can
//!   spread scenario replay across workers, plus one point differentially
//!   fuzzing random collective schedules against a sequential reference.
//!
//! The fuzz budget defaults to `Full`: 200 / `Quick`: 60 scenarios and can
//! be overridden with `--fuzz-budget N` ([`Validate::fuzz_budget`]); each
//! chunk's point carries its own scenario count. When
//! `SIMCHECK_FAILURE_DIR` is set, every shrunk failing script is also
//! written there as a file — the nightly long-fuzz workflow uploads that
//! directory as an artifact.

use simcheck::scenario::GenConfig;
use simcheck::{collective, fuzz, metamorphic, oracles};
use topology::fabric::FabricPreset;
use topology::Preset;

use super::Fidelity;
use crate::campaign::{PointCtx, Sweep, Values};
use crate::report::{Check, FigureData};

/// Scenarios per fuzz sweep point (chunk).
const FUZZ_CHUNK: usize = 50;

/// Scenario batch size for each metamorphic invariant point.
fn meta_count(fidelity: Fidelity) -> usize {
    fidelity.choose(40, 12)
}

/// Random collectives per collective-invariant point (each runs two full
/// cluster simulations).
fn coll_meta_count(fidelity: Fidelity) -> usize {
    fidelity.choose(12, 4)
}

/// Random collectives for the differential collective-fuzz point.
fn coll_fuzz_count(fidelity: Fidelity) -> usize {
    fidelity.choose(24, 6)
}

/// The validation campaign driver (`repro --validate`).
pub struct Validate {
    /// Total differential-fuzz scenarios; `None` is the fidelity default
    /// (`Full`: 200, `Quick`: 60).
    pub fuzz_budget: Option<usize>,
}

/// One point of the validation plan.
pub enum ValidatePoint {
    /// One closed-form oracle family on one cluster preset.
    Oracle(Preset, oracles::OracleKind),
    /// One collective oracle family on one fabric preset.
    CollectiveOracle(FabricPreset, collective::CollectiveOracle),
    /// One metamorphic invariant over this many random fluid scenarios.
    Metamorphic(metamorphic::Invariant, usize),
    /// One collective invariant over this many random schedules.
    CollectiveInvariant(collective::CollectiveInvariant, usize),
    /// One chunk of the differential fuzz budget: `n` scenarios.
    Fuzz {
        /// Chunk number (0-based).
        chunk: usize,
        /// Scenarios in the chunk.
        n: usize,
    },
    /// Differential fuzz of this many random collective schedules.
    CollectiveFuzz(usize),
}

impl Sweep for Validate {
    const NAME: &'static str = "validate";
    const ANCHOR: &'static str =
        "model validation (oracles, metamorphic invariants, differential fuzz)";
    /// Validation interrogates the simulator build at hand: always rerun.
    const DURABLE: bool = false;
    type Point = ValidatePoint;
    type Value = Vec<Check>;

    fn sweep(&self, fidelity: Fidelity) -> Vec<(String, ValidatePoint)> {
        use ValidatePoint as P;
        let mut plan = Vec::new();
        for preset in Preset::clusters() {
            for kind in oracles::OracleKind::ALL {
                let label = format!("oracle {} on {}", kind.name(), preset.spec().name);
                plan.push((label, P::Oracle(preset, kind)));
            }
        }
        for fabric in FabricPreset::ALL {
            for kind in collective::CollectiveOracle::ALL {
                let label = format!(
                    "collective oracle {} on {} fabric",
                    kind.name(),
                    fabric.name()
                );
                plan.push((label, P::CollectiveOracle(fabric, kind)));
            }
        }
        let n = meta_count(fidelity);
        for inv in metamorphic::Invariant::ALL {
            let label = format!("metamorphic {} ({} scenarios)", inv.name(), n);
            plan.push((label, P::Metamorphic(inv, n)));
        }
        let n = coll_meta_count(fidelity);
        for inv in collective::CollectiveInvariant::ALL {
            let label = format!("collective invariant {} ({} schedules)", inv.name(), n);
            plan.push((label, P::CollectiveInvariant(inv, n)));
        }
        let budget = self.fuzz_budget.unwrap_or_else(|| fidelity.choose(200, 60));
        for chunk in 0..budget.div_ceil(FUZZ_CHUNK) {
            let n = FUZZ_CHUNK.min(budget - chunk * FUZZ_CHUNK);
            let label = format!("differential fuzz chunk {} ({} scenarios)", chunk, n);
            plan.push((label, P::Fuzz { chunk, n }));
        }
        let n = coll_fuzz_count(fidelity);
        let label = format!("collective differential fuzz ({} schedules)", n);
        plan.push((label, P::CollectiveFuzz(n)));
        plan
    }

    fn measure(&self, point: &ValidatePoint, ctx: &PointCtx<'_>) -> Result<Vec<Check>, String> {
        let outcomes: Vec<simcheck::Outcome> = match *point {
            ValidatePoint::Oracle(preset, kind) => kind.run(&preset.spec()),
            ValidatePoint::CollectiveOracle(fabric, kind) => kind.run(fabric),
            ValidatePoint::Metamorphic(inv, n) => vec![inv.check(ctx.seed, n)],
            ValidatePoint::CollectiveInvariant(inv, n) => vec![inv.check(ctx.seed, n)],
            ValidatePoint::CollectiveFuzz(n) => vec![collective::fuzz_collectives(ctx.seed, n)],
            ValidatePoint::Fuzz { chunk, n } => vec![fuzz_chunk(chunk, n, ctx.seed)],
        };
        Ok(outcomes
            .into_iter()
            .map(|o| Check::new(o.name, o.pass, o.detail))
            .collect())
    }

    fn figures(&self, fidelity: Fidelity, values: Values<'_, Vec<Check>>) -> Vec<FigureData> {
        let mut checks = Vec::new();
        let mut oracle_n = 0usize;
        let mut meta_n = 0usize;
        let mut fuzz_scenarios = 0usize;
        for ((_, point), point_checks) in self.sweep(fidelity).iter().zip(values.iter()) {
            match *point {
                ValidatePoint::Oracle(..) | ValidatePoint::CollectiveOracle(..) => {
                    oracle_n += point_checks.len()
                }
                ValidatePoint::Metamorphic(..) | ValidatePoint::CollectiveInvariant(..) => {
                    meta_n += point_checks.len()
                }
                ValidatePoint::Fuzz { n, .. } | ValidatePoint::CollectiveFuzz(n) => {
                    fuzz_scenarios += n
                }
            }
            checks.extend(point_checks.iter().cloned());
        }
        let failed = checks.iter().filter(|c| !c.pass).count();
        vec![FigureData {
            id: "validate",
            title: format!(
                "Model validation: {} oracle checks, {} metamorphic invariants, {} fuzzed \
                 scenarios ({} failure(s))",
                oracle_n, meta_n, fuzz_scenarios, failed
            ),
            xlabel: "check",
            ylabel: "verdict",
            series: Vec::new(),
            notes: vec![
                "closed-form oracles on every cluster preset (DESIGN.md §11): eager α+β·size, \
                 rendezvous bandwidth, threshold crossover, turbo ladders, memory saturation, \
                 max-min shares"
                    .into(),
                "collective oracles on every fabric preset (DESIGN.md §14): ring allreduce \
                 2(n−1)·t(⌈s/n⌉), tree bcast ⌈log₂n⌉·(α+β·size), alltoall (n−1)·t and the \
                 busiest-link bisection bound"
                    .into(),
                "metamorphic invariants over random fluid scenarios: determinism, \
                 time-translation, permutation symmetry, monotonicity, conservation"
                    .into(),
                "collective invariants: rank-permutation symmetry (switch), interleave \
                 independence, per-link byte conservation; plus differential fuzz of random \
                 schedules against a sequential reference"
                    .into(),
                format!(
                    "differential fuzz: incremental vs reference solver (bit-exact) and permuted \
                     insertion orders, {} scenarios, failures shrunk to minimal scripts",
                    fuzz_scenarios
                ),
            ],
            checks,
            runs: Vec::new(),
        }]
    }
}

/// Differential fuzz of `n` random fluid scenarios (one budget chunk).
fn fuzz_chunk(chunk: usize, n: usize, seed: u64) -> simcheck::Outcome {
    let report = fuzz::run(seed, n, &GenConfig::default());
    if let Ok(dir) = std::env::var("SIMCHECK_FAILURE_DIR") {
        for f in &report.failures {
            let _ = std::fs::create_dir_all(&dir);
            let path = format!("{}/fuzz-seed-{:016x}.txt", dir, f.seed);
            let body = format!(
                "seed: {:#018x}\nreason: {}\nshrunk {} -> {} events\n\n{}",
                f.seed, f.reason, f.events_before, f.events_after, f.script
            );
            let _ = std::fs::write(path, body);
        }
    }
    let detail = match report.failures.first() {
        None => format!("{} scenarios, 0 divergences", report.scenarios),
        Some(f) => format!(
            "{} divergence(s) in {} scenarios; first: seed {:#018x}, {}, shrunk to {} \
             event(s):\n{}",
            report.failures.len(),
            report.scenarios,
            f.seed,
            f.reason,
            f.events_after,
            f.script
        ),
    };
    simcheck::Outcome::bool(
        format!("fuzz chunk {} [{} scenario(s)]", chunk, report.scenarios),
        report.failures.is_empty(),
        detail,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_experiment, CampaignOptions};

    #[test]
    fn quick_validation_passes_every_check() {
        let validate = Validate { fuzz_budget: None };
        let f = run_experiment(&validate, &CampaignOptions::serial(Fidelity::Quick))
            .figures
            .remove(0);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        // All three layers contributed.
        let oracle_points = Preset::clusters().len() * oracles::OracleKind::ALL.len();
        assert!(f.checks.len() > oracle_points);
        assert!(f.title.contains("0 failure(s)"), "{}", f.title);
    }

    #[test]
    fn plan_respects_fuzz_budget() {
        let fuzz_chunks = |fuzz_budget| {
            let plan = Validate { fuzz_budget }.sweep(Fidelity::Quick);
            assert!(matches!(
                plan.last(),
                Some((_, ValidatePoint::CollectiveFuzz(6)))
            ));
            plan.iter()
                .filter_map(|(_, p)| match *p {
                    ValidatePoint::Fuzz { chunk, n } => Some((chunk, n)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(fuzz_chunks(Some(120)), [(0, 50), (1, 50), (2, 20)]);
        // The Quick default budget is 60.
        assert_eq!(fuzz_chunks(None), [(0, 50), (1, 10)]);
    }
}
