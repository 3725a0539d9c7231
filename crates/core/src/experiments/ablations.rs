//! Ablations of the interference model's own design choices (the
//! DESIGN.md extensions): each ablation disables or sweeps one mechanism
//! and shows which measured effect it is responsible for.
//!
//! * **congestion latency model** — without the congestion-dependent
//!   control-path inflation, the Figure 4a latency curve goes flat: fluid
//!   bandwidth sharing alone cannot explain small-message latency under
//!   contention;
//! * **package-idle penalty** — without it, latency is no longer *better*
//!   beside computation (the §3.2/§3.3 counter-intuitive finding vanishes);
//! * **NIC DMA arbitration weight** — the Figure 4b bandwidth floor is set
//!   by how aggressively the NIC competes for the memory controller;
//! * **registration cache** — reusing ping-pong buffers (as the paper does,
//!   citing the pin-down cache) hides the rendezvous pinning cost.

use kernels::stream::{workload, StreamKernel};
use mpisim::pingpong::{self, PingPongConfig};
use simcore::{JitterFamily, Series, Summary};
use topology::{henri, MachineSpec, Placement};

use crate::campaign::{point_seed, PointCtx, Sweep, Values};
use crate::experiments::Fidelity;
use crate::protocol::{self, ProtocolConfig};
use crate::report::{Check, FigureData};

/// NIC DMA arbitration weights swept by ablation 3.
const NIC_WEIGHTS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// Latency inflation at full STREAM occupancy for a machine variant.
fn latency_inflation(machine: &MachineSpec, fidelity: Fidelity, seed: u64) -> Result<f64, String> {
    let w = workload(StreamKernel::Triad, 2_000_000, machine.near_numa(), 1);
    let mut cfg = ProtocolConfig::new(machine.clone(), Some(w));
    cfg.placement = Placement::fig4_default();
    cfg.compute_cores = machine.core_count() as usize - 1;
    cfg.pingpong = PingPongConfig::latency(fidelity.lat_reps());
    cfg.reps = fidelity.reps();
    cfg.seed = seed;
    let r = protocol::try_run(&cfg).map_err(|e| e.to_string())?;
    Ok(Summary::of(&r.lat_together()).median / Summary::of(&r.lat_alone()).median)
}

/// Bandwidth retained at full STREAM occupancy for a machine variant.
fn bandwidth_retained(machine: &MachineSpec, fidelity: Fidelity, seed: u64) -> Result<f64, String> {
    let w = workload(StreamKernel::Triad, 2_000_000, machine.near_numa(), 1);
    let mut cfg = ProtocolConfig::new(machine.clone(), Some(w));
    cfg.placement = Placement::fig4_default();
    cfg.compute_cores = machine.core_count() as usize - 1;
    cfg.pingpong = PingPongConfig {
        size: 64 << 20,
        reps: fidelity.bw_reps(),
        warmup: 1,
        mtag: 11,
    };
    cfg.reps = fidelity.reps();
    cfg.seed = seed;
    let r = protocol::try_run(&cfg).map_err(|e| e.to_string())?;
    Ok(Summary::of(&r.bw_together()).median / Summary::of(&r.bw_alone()).median)
}

/// Latency-alone minus latency-together (µs) under the Fig 2 setup.
fn fig2_delta(machine: &MachineSpec, fidelity: Fidelity, seed: u64) -> Result<f64, String> {
    let w = kernels::primes::workload(0, 30_000, 1);
    let mut cfg = ProtocolConfig::new(machine.clone(), Some(w));
    cfg.compute_cores = 20;
    cfg.pingpong = PingPongConfig::latency(fidelity.lat_reps());
    cfg.reps = fidelity.reps();
    cfg.seed = seed;
    let r = protocol::try_run(&cfg).map_err(|e| e.to_string())?;
    Ok(Summary::of(&r.lat_alone()).median - Summary::of(&r.lat_together()).median)
}

/// First-use vs cached-buffer latency of a rendezvous-sized message, µs.
fn registration_effect(machine: &MachineSpec) -> Vec<f64> {
    let cfg = ProtocolConfig::new(machine.clone(), None);
    let family = JitterFamily::new(0xAB_4);
    let mut cluster = protocol::build_cluster(&cfg, &family, 0);
    // warmup 0: the first measured rep pays registration.
    let first = pingpong::run(
        &mut cluster,
        PingPongConfig {
            size: 4 << 20,
            reps: 1,
            warmup: 0,
            mtag: 12,
        },
    )
    .median_latency_us();
    let cached = pingpong::run(
        &mut cluster,
        PingPongConfig {
            size: 4 << 20,
            reps: 3,
            warmup: 0,
            mtag: 12,
        },
    )
    .median_latency_us();
    vec![first, cached]
}

/// One ablation of the plan.
pub(crate) enum Ablation {
    /// The congestion latency model on or off.
    Congestion(bool),
    /// The package-idle penalty on or off.
    IdlePenalty(bool),
    /// One NIC DMA arbitration weight.
    NicWeight(f64),
    /// The registration-cache probe.
    Registration,
}

/// Registry driver for the model ablations (9 points: two on/off pairs, a
/// 4-value NIC-weight sweep and the registration-cache probe).
pub(crate) struct Ablations;

impl Sweep for Ablations {
    const NAME: &'static str = "ablations";
    const ANCHOR: &'static str = "DESIGN.md §6 model ablations";
    type Point = Ablation;
    /// One scalar, or the registration probe's (first-use µs, cached µs).
    type Value = Vec<f64>;

    fn sweep(&self, _fidelity: Fidelity) -> Vec<(String, Ablation)> {
        let mut plan = vec![
            (
                "congestion model on".to_string(),
                Ablation::Congestion(true),
            ),
            (
                "congestion model off".to_string(),
                Ablation::Congestion(false),
            ),
            ("idle penalty on".to_string(), Ablation::IdlePenalty(true)),
            ("idle penalty off".to_string(), Ablation::IdlePenalty(false)),
        ];
        for w in NIC_WEIGHTS {
            plan.push((format!("NIC DMA weight {}", w), Ablation::NicWeight(w)));
        }
        plan.push(("registration cache".to_string(), Ablation::Registration));
        plan
    }

    fn measure(&self, point: &Ablation, ctx: &PointCtx<'_>) -> Result<Vec<f64>, String> {
        let mut m = henri();
        // On/off pairs share the seed of the pair's first point (plan
        // positions 0 and 2) so the comparison stays paired (sampling
        // noise cancels).
        let value = match *point {
            Ablation::Congestion(on) => {
                if !on {
                    m.congestion_gain = 0.0;
                }
                latency_inflation(&m, ctx.fidelity, point_seed(Self::NAME, 0))?
            }
            Ablation::IdlePenalty(on) => {
                if !on {
                    m.idle_uncore_penalty_s = 0.0;
                }
                fig2_delta(&m, ctx.fidelity, point_seed(Self::NAME, 2))?
            }
            Ablation::NicWeight(w) => {
                m.network.nic_dma_weight = w;
                bandwidth_retained(&m, ctx.fidelity, ctx.seed)?
            }
            Ablation::Registration => return Ok(registration_effect(&m)),
        };
        Ok(vec![value])
    }

    fn figures(&self, _fidelity: Fidelity, values: Values<'_, Vec<f64>>) -> Vec<FigureData> {
        // In sweep order.
        let mut values = values.iter();
        let mut next = || values.next().expect("every ablation measured");
        let infl_on = next()[0];
        let infl_off = next()[0];
        let delta_with = next()[0];
        let delta_without = next()[0];
        let retained: Vec<f64> = NIC_WEIGHTS.iter().map(|_| next()[0]).collect();
        let registration = next();
        let (first_us, cached_us) = (registration[0], registration[1]);

        let mut s_weight = Series::new("bandwidth retained vs NIC DMA weight");
        for (i, w) in NIC_WEIGHTS.iter().enumerate() {
            s_weight.push(*w, &[retained[i]]);
        }
        let mut s_infl = Series::new("latency inflation: congestion model on/off");
        s_infl.push(0.0, &[infl_off]);
        s_infl.push(1.0, &[infl_on]);
        let mut s_idle = Series::new("latency delta alone-together (us): idle penalty on/off");
        s_idle.push(0.0, &[delta_without]);
        s_idle.push(1.0, &[delta_with]);
        let mut s_reg = Series::new("4 MiB send latency (us): first vs cached registration");
        s_reg.push(0.0, &[first_us]);
        s_reg.push(1.0, &[cached_us]);

        let checks = vec![
            Check::new(
                "congestion model is what inflates small-message latency",
                infl_on > 1.5 && infl_off < 1.2,
                format!(
                    "inflation ×{:.2} with model vs ×{:.2} without",
                    infl_on, infl_off
                ),
            ),
            Check::new(
                "idle penalty explains 'together beats alone'",
                delta_with > 0.05 && delta_without.abs() < 0.05,
                format!(
                    "alone-together delta {:.2} µs with penalty vs {:.2} µs without",
                    delta_with, delta_without
                ),
            ),
            Check::new(
                "NIC arbitration weight sets the bandwidth floor (monotone)",
                retained.windows(2).all(|w| w[1] >= w[0] - 1e-9)
                    && retained[3] > retained[0] * 1.5,
                format!("retained fractions {:?}", retained),
            ),
            Check::new(
                "registration cache hides the pinning cost on reuse",
                first_us > cached_us * 1.2,
                format!("first {:.0} µs vs cached {:.0} µs", first_us, cached_us),
            ),
        ];

        vec![FigureData {
            id: "ablations",
            title: "Model ablations: which mechanism produces which measured effect".into(),
            xlabel: "variant",
            ylabel: "ratio / us",
            series: vec![s_infl, s_idle, s_weight, s_reg],
            notes: vec![
                "these are ablations of the simulator's design choices (DESIGN.md §6), not paper figures"
                    .into(),
            ],
            checks,
            runs: Vec::new(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_experiment, CampaignOptions};

    #[test]
    fn ablations_quick_pass_checks() {
        let f = run_experiment(&Ablations, &CampaignOptions::serial(Fidelity::Quick))
            .figures
            .remove(0);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        assert_eq!(f.series.len(), 4);
    }
}
