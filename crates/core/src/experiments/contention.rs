//! Shared STREAM-vs-ping-pong contention measurements (Figures 4, 5 and
//! Table 1).
//!
//! One *contention point* is the three-step protocol at a given
//! (machine, placement, network metric, computing-core count). Figure 4
//! sweeps core counts for the paper's default placement, Figure 5 sweeps
//! all four placements, and Table 1 summarizes Figure 5 — so the three
//! experiments request overlapping points. Points are memoized in the
//! campaign's [`BaselineCache`] keyed by configuration content: within one
//! campaign, fig4, fig5 and table1 share every overlapping measurement
//! instead of recomputing three placement sweeps.
//!
//! The communication-alone step does not depend on the computing-core
//! count at all (no jobs run beside it), so it is memoized once per
//! (machine, placement, metric) and shared by every core count of the
//! sweep.

use kernels::stream::{workload, StreamKernel};
use mpisim::pingpong::PingPongConfig;
use topology::{henri, BindingPolicy, MachineSpec, Placement};

use crate::campaign::{PointCtx, Values};
use crate::codec::{Codec, Dec, Enc};
use crate::experiments::Fidelity;
use crate::protocol::{self, ProtocolConfig, RepMetrics, StepMask, StepResults};

/// STREAM array length per pass (paper-style large arrays).
pub const STREAM_ELEMS: usize = 2_000_000;

/// Core-count sweep used by Figures 4 and 5.
pub fn core_sweep(max: usize) -> Vec<usize> {
    let mut v: Vec<usize> = vec![1, 2, 3, 5, 7, 9, 12, 15, 18, 21, 24, 27, 30, 33, 35];
    v.retain(|&c| c <= max);
    v
}

/// The computing-core counts every henri contention sweep visits.
fn henri_cores(fidelity: Fidelity) -> Vec<usize> {
    fidelity.thin(&core_sweep(henri().core_count() as usize - 1))
}

/// The network metric a contention sweep measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Small-message latency (µs).
    Latency,
    /// Large-message bandwidth (B/s).
    Bandwidth,
}

impl Metric {
    /// Short tag used in cache keys and point labels.
    pub fn tag(self) -> &'static str {
        match self {
            Metric::Latency => "lat",
            Metric::Bandwidth => "bw",
        }
    }

    /// The ping-pong configuration of the metric.
    pub fn pingpong(self, fidelity: Fidelity) -> PingPongConfig {
        match self {
            Metric::Latency => PingPongConfig::latency(fidelity.lat_reps()),
            Metric::Bandwidth => PingPongConfig {
                size: 64 << 20,
                reps: fidelity.bw_reps(),
                warmup: 1,
                mtag: 2,
            },
        }
    }

    /// Extract the metric from per-rep protocol metrics.
    fn extract(self, reps: &[RepMetrics]) -> Vec<f64> {
        reps.iter()
            .map(|m| match self {
                Metric::Latency => m.comm_latency_us,
                Metric::Bandwidth => m.comm_bandwidth,
            })
            .collect()
    }
}

/// Per-rep measurements of one contention point.
#[derive(Clone, Debug)]
pub(crate) struct ContentionPoint {
    /// Network metric alone (latency µs or bandwidth B/s), one per rep.
    pub comm_alone: Vec<f64>,
    /// Network metric beside STREAM.
    pub comm_together: Vec<f64>,
    /// STREAM per-core bandwidth alone.
    pub stream_alone: Vec<f64>,
    /// STREAM per-core bandwidth beside the ping-pong.
    pub stream_together: Vec<f64>,
}

impl Codec for ContentionPoint {
    fn encode(&self, e: &mut Enc) {
        e.f64s(&self.comm_alone)
            .f64s(&self.comm_together)
            .f64s(&self.stream_alone)
            .f64s(&self.stream_together);
    }

    fn decode(d: &mut Dec<'_>) -> Option<ContentionPoint> {
        Some(ContentionPoint {
            comm_alone: d.f64s()?,
            comm_together: d.f64s()?,
            stream_alone: d.f64s()?,
            stream_together: d.f64s()?,
        })
    }
}

/// The coordinates of one contention point on henri.
pub(crate) struct PlacementPoint {
    /// Table 1 row label of the placement (part of the cache key).
    label: &'static str,
    placement: Placement,
    metric: Metric,
    cores: usize,
}

/// Every (metric, core count) of each placement, placement-major. With
/// `named`, labels start with the placement's Table 1 row label.
fn sweep(
    fidelity: Fidelity,
    placements: &[(&'static str, Placement)],
    named: bool,
) -> Vec<(String, PlacementPoint)> {
    let mut out = Vec::new();
    for &(label, placement) in placements {
        for metric in [Metric::Latency, Metric::Bandwidth] {
            for cores in henri_cores(fidelity) {
                let at = format!("{} @ {} cores", metric.tag(), cores);
                let name = if named {
                    format!("{}, {}", label, at)
                } else {
                    at
                };
                let point = PlacementPoint {
                    label,
                    placement,
                    metric,
                    cores,
                };
                out.push((name, point));
            }
        }
    }
    out
}

/// Figure 4's placement: data near the NIC, communication thread far —
/// the second Table 1 row, so the cache shares its points with Figure 5
/// and Table 1.
const FIG4_PLACEMENT: &str = "data near, thread far";

/// Figure 4's sweep: {latency, bandwidth} × core counts at
/// [`FIG4_PLACEMENT`].
pub(crate) fn fig4_sweep(fidelity: Fidelity) -> Vec<(String, PlacementPoint)> {
    sweep(
        fidelity,
        &[(FIG4_PLACEMENT, Placement::fig4_default())],
        false,
    )
}

/// The sweep Figure 5 and Table 1 share: every Table 1 placement ×
/// {latency, bandwidth} × core counts.
pub(crate) fn placement_sweep(fidelity: Fidelity) -> Vec<(String, PlacementPoint)> {
    sweep(fidelity, &Placement::all_combinations(), true)
}

/// The latency and bandwidth curves of each placement of a sweep built
/// here, in sweep order.
pub(crate) fn curves(
    fidelity: Fidelity,
    values: Values<'_, ContentionPoint>,
) -> Vec<(ContentionSeries, ContentionSeries)> {
    let cores = henri_cores(fidelity);
    let points: Vec<&ContentionPoint> = values.iter().collect();
    points
        .chunks(2 * cores.len())
        .map(|p| {
            let (lat, bw) = p.split_at(cores.len());
            (
                series_for(Metric::Latency, &cores, lat),
                series_for(Metric::Bandwidth, &cores, bw),
            )
        })
        .collect()
}

/// The STREAM NUMA node implied by a placement's data policy.
pub fn data_numa(machine: &MachineSpec, placement: Placement) -> topology::NumaId {
    match placement.data {
        BindingPolicy::NearNic => machine.near_numa(),
        BindingPolicy::FarFromNic => machine.far_numa(),
        BindingPolicy::Numa(n) => n,
    }
}

fn base_config(
    machine: &MachineSpec,
    placement: Placement,
    metric: Metric,
    cores: usize,
    fidelity: Fidelity,
    seed: u64,
) -> ProtocolConfig {
    let w = workload(StreamKernel::Triad, STREAM_ELEMS, data_numa(machine, placement), 1);
    let mut cfg = ProtocolConfig::new(machine.clone(), Some(w));
    cfg.placement = placement;
    cfg.compute_cores = cores;
    cfg.pingpong = metric.pingpong(fidelity);
    cfg.reps = fidelity.reps();
    cfg.seed = seed;
    cfg
}

/// Measure (or fetch from the campaign cache) one contention point. The
/// point's value derives only from its cache key, so every experiment
/// requesting the same (placement, metric, cores) gets the identical
/// measurement — serial or parallel.
pub(crate) fn measure(ctx: &PointCtx<'_>, p: &PlacementPoint) -> Result<ContentionPoint, String> {
    let machine = &henri();
    let PlacementPoint {
        label: placement_label,
        placement,
        metric,
        cores,
    } = *p;
    let fidelity = ctx.fidelity;
    let point_key = format!(
        "contention/{}/{}/{}/{}",
        machine.name,
        placement_label,
        metric.tag(),
        cores
    );
    // Errors are deliberately not memoized (see
    // `BaselineCache::get_or_compute_result`): a cancelled or failed
    // baseline must not be served to every later point sharing the key.
    let cached: std::sync::Arc<ContentionPoint> =
        ctx.baselines.get_or_compute_result(&point_key, |seed| {
            // The communication-alone step is core-count independent:
            // memoize it once per (machine, placement, metric).
            let comm_key = format!(
                "contention/{}/{}/{}/comm-alone",
                machine.name,
                placement_label,
                metric.tag()
            );
            let comm: std::sync::Arc<StepResults> =
                ctx.baselines.get_or_compute_result(&comm_key, |comm_seed| {
                    let cfg = base_config(machine, placement, metric, cores, fidelity, comm_seed);
                    protocol::try_run_masked(
                        &cfg,
                        &simcore::FaultPlan::new(cfg.seed),
                        StepMask::COMM_ALONE,
                    )
                    .map_err(|e| e.to_string())
                })?;
            let cfg = base_config(machine, placement, metric, cores, fidelity, seed);
            let fresh = protocol::try_run_masked(
                &cfg,
                &simcore::FaultPlan::new(cfg.seed),
                StepMask::WITHOUT_COMM_ALONE,
            )
            .map_err(|e| e.to_string())?;
            Ok(ContentionPoint {
                comm_alone: metric.extract(&comm.comm_alone),
                comm_together: metric.extract(&fresh.together),
                stream_alone: fresh.compute_bw_alone(),
                stream_together: fresh.compute_bw_together(),
            })
        })?;
    Ok((*cached).clone())
}

/// The four series of one contention plot, named as in Figures 4/5.
pub(crate) struct ContentionSeries {
    /// Network metric alone (latency µs or bandwidth B/s).
    pub comm_alone: simcore::Series,
    /// Network metric beside STREAM.
    pub comm_together: simcore::Series,
    /// STREAM per-core bandwidth alone.
    pub stream_alone: simcore::Series,
    /// STREAM per-core bandwidth beside the ping-pong.
    pub stream_together: simcore::Series,
}

/// Assemble the four figure series of one metric from per-core-count
/// contention points (in sweep order).
fn series_for(metric: Metric, cores: &[usize], points: &[&ContentionPoint]) -> ContentionSeries {
    let latency = metric == Metric::Latency;
    let mut out = ContentionSeries {
        comm_alone: simcore::Series::new(if latency {
            "latency alone (us)"
        } else {
            "bandwidth alone (B/s)"
        }),
        comm_together: simcore::Series::new(if latency {
            "latency + STREAM (us)"
        } else {
            "bandwidth + STREAM (B/s)"
        }),
        stream_alone: simcore::Series::new("STREAM per-core BW alone (B/s)"),
        stream_together: simcore::Series::new("STREAM per-core BW + comm (B/s)"),
    };
    for (&n, p) in cores.iter().zip(points) {
        out.comm_alone.push(n as f64, &p.comm_alone);
        out.comm_together.push(n as f64, &p.comm_together);
        out.stream_alone.push(n as f64, &p.stream_alone);
        out.stream_together.push(n as f64, &p.stream_together);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_sweep_respects_max() {
        assert!(core_sweep(35).contains(&35));
        assert!(!core_sweep(20).contains(&35));
    }

    #[test]
    fn fig4_default_is_a_table1_row() {
        // Figure 4's placement must be one of the four Table 1 combos so
        // the cache can share its points with Figure 5 and Table 1.
        let combos = Placement::all_combinations();
        assert_eq!(combos[1].1, Placement::fig4_default());
        assert_eq!(combos[1].0, FIG4_PLACEMENT);
        // Same cache keys: every Figure 4 point is a Figure 5 point.
        let key = |p: &PlacementPoint| (p.label, p.placement, p.metric, p.cores);
        let fig5: Vec<_> = placement_sweep(Fidelity::Quick)
            .iter()
            .map(|(_, p)| key(p))
            .collect();
        for (_, p) in fig4_sweep(Fidelity::Quick) {
            assert!(fig5.contains(&key(&p)));
        }
    }
}
