//! Figure 10 — communication performance inside real computational
//! kernels: distributed dense CG and GEMM on the task runtime (§6).
//!
//! Top plot: normalized sending bandwidth (profiler at the sender) vs the
//! number of workers. Bottom plot: fraction of CPU stalls caused by memory
//! accesses (simulated PMU). The paper's headline: CG (memory-bound) loses
//! up to 90 % of sending bandwidth with ~70 % memory stalls; GEMM
//! (compute-bound) loses at most ~20 % with ~20 % stalls.

use mpisim::Cluster;
use simcore::Series;
use taskrt::programs::{self, UseCaseConfig};
use taskrt::{Runtime, RuntimeConfig};
use topology::{henri, Placement};

use crate::campaign::{PointCtx, Sweep, Values};
use crate::experiments::Fidelity;
use crate::paper;
use crate::report::{Check, FigureData};

const KINDS: [&str; 2] = ["CG", "GEMM"];

/// Worker sweep of Figure 10.
fn worker_sweep(fidelity: Fidelity) -> Vec<usize> {
    fidelity.pick(&[1, 2, 4, 8, 12, 16, 20, 25, 30, 35], &[1, 8, 30])
}

fn fresh_cluster() -> Cluster {
    Cluster::new(
        &henri(),
        freq::Governor::Performance { turbo: true },
        freq::UncorePolicy::Auto,
        Placement::fig4_default(),
    )
}

/// Registry driver for Figure 10 (sweep: {CG, GEMM} × worker counts).
pub(crate) struct Fig10;

impl Sweep for Fig10 {
    const NAME: &'static str = "fig10";
    const ANCHOR: &'static str = "§6, Figure 10";
    /// (kernel, workers per node).
    type Point = (&'static str, usize);
    /// Raw (send bandwidth B/s, memory-stall fraction). Normalization to
    /// the 1-worker baseline happens in `figures`, where all points of the
    /// sweep are visible.
    type Value = (f64, f64);

    fn sweep(&self, fidelity: Fidelity) -> Vec<(String, Self::Point)> {
        let mut plan = Vec::new();
        for kind in KINDS {
            for w in worker_sweep(fidelity) {
                plan.push((format!("{} @ {} workers", kind, w), (kind, w)));
            }
        }
        plan
    }

    fn measure(&self, &(kind, w): &Self::Point, ctx: &PointCtx<'_>) -> Result<(f64, f64), String> {
        let iters = ctx.fidelity.choose(3, 2);
        let cfg = match kind {
            "CG" => UseCaseConfig::cg(w, iters),
            _ => UseCaseConfig::gemm(w, iters),
        };
        let mut cluster = fresh_cluster();
        let mut rt = Runtime::new(RuntimeConfig::for_machine(&cluster.spec));
        programs::attach_n_workers(&mut cluster, &mut rt, w);
        let res = programs::run(&mut cluster, &mut rt, cfg);
        Ok((res.mean_send_bw, res.stall_fraction))
    }

    fn figures(&self, fidelity: Fidelity, values: Values<'_, (f64, f64)>) -> Vec<FigureData> {
        let workers = worker_sweep(fidelity);
        let mut values = values.iter();
        let mut sweeps = Vec::new();
        for kind in KINDS {
            let mut bw = Series::new(format!("{} normalized send bandwidth", kind));
            let mut stalls = Series::new(format!("{} memory-stall fraction", kind));
            let points: Vec<_> = values.by_ref().take(workers.len()).collect();
            let base = points[0].0;
            for (&w, &&(send_bw, stall_fraction)) in workers.iter().zip(&points) {
                bw.push(w as f64, &[send_bw / base]);
                stalls.push(w as f64, &[stall_fraction]);
            }
            sweeps.push((bw, stalls));
        }
        let (gemm_bw, gemm_stalls) = sweeps.pop().expect("two sweeps");
        let (cg_bw, cg_stalls) = sweeps.pop().expect("two sweeps");

        let cg_final = cg_bw.points.last().expect("points").y.median;
        let gemm_final = gemm_bw.points.last().expect("points").y.median;
        let cg_stall_final = cg_stalls.points.last().expect("points").y.median;
        let gemm_stall_final = gemm_stalls.points.last().expect("points").y.median;

        let checks_bw = vec![
            Check::new(
                "CG loses most of its sending bandwidth at full occupancy (paper: −90 %)",
                cg_final < 0.35,
                format!(
                    "normalized bandwidth {:.2} (−{:.0} %)",
                    cg_final,
                    (1.0 - cg_final) * 100.0
                ),
            ),
            Check::new(
                "GEMM loses far less (paper: ≤ 20 %)",
                gemm_final > 0.6,
                format!(
                    "normalized bandwidth {:.2} (−{:.0} %)",
                    gemm_final,
                    (1.0 - gemm_final) * 100.0
                ),
            ),
            Check::new(
                "CG is hit much harder than GEMM",
                cg_final < gemm_final - 0.2,
                format!("CG {:.2} vs GEMM {:.2}", cg_final, gemm_final),
            ),
            Check::new(
                "degradation grows with the number of computing cores",
                {
                    let meds: Vec<f64> = cg_bw.points.iter().map(|p| p.y.median).collect();
                    meds.windows(2).all(|w| w[1] <= w[0] * 1.08)
                },
                "CG normalized bandwidth is (weakly) decreasing".to_string(),
            ),
        ];
        let checks_st = vec![
            Check::new(
                "CG stalls mostly on memory at full occupancy (paper: ~70 %)",
                cg_stall_final > 0.5,
                format!("stall fraction {:.2}", cg_stall_final),
            ),
            Check::new(
                "GEMM stalls far less (paper: ~20 %)",
                gemm_stall_final < 0.35,
                format!("stall fraction {:.2}", gemm_stall_final),
            ),
            Check::new(
                "stall ordering matches the bandwidth ordering",
                cg_stall_final > gemm_stall_final,
                format!("CG {:.2} vs GEMM {:.2}", cg_stall_final, gemm_stall_final),
            ),
        ];

        vec![
            FigureData {
                id: "fig10-bw",
                title: "Normalized sending bandwidth of CG and GEMM vs workers (henri, 2 ranks)"
                    .into(),
                xlabel: "workers per node",
                ylabel: "normalized send bandwidth",
                series: vec![cg_bw, gemm_bw],
                notes: vec![format!(
                    "paper: CG loses up to {:.0} %, GEMM at most {:.0} %",
                    paper::FIG10_CG_LOSS * 100.0,
                    paper::FIG10_GEMM_LOSS * 100.0
                )],
                checks: checks_bw,
                runs: Vec::new(),
            },
            FigureData {
                id: "fig10-stalls",
                title: "Memory-stall fraction of CG and GEMM vs workers (henri, 2 ranks)".into(),
                xlabel: "workers per node",
                ylabel: "stall fraction",
                series: vec![cg_stalls, gemm_stalls],
                notes: vec![format!(
                    "paper: ~{:.0} % stalls for CG vs ~{:.0} % for GEMM at full occupancy",
                    paper::FIG10_CG_STALLS * 100.0,
                    paper::FIG10_GEMM_STALLS * 100.0
                )],
                checks: checks_st,
                runs: Vec::new(),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_experiment, CampaignOptions};

    #[test]
    fn fig10_quick_passes_checks() {
        let figs = run_experiment(&Fig10, &CampaignOptions::serial(Fidelity::Quick)).figures;
        assert_eq!(figs.len(), 2);
        for f in &figs {
            for c in &f.checks {
                assert!(c.pass, "{}: {} — {}", f.id, c.name, c.detail);
            }
        }
    }
}
