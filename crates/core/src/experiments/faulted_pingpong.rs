//! Rendezvous ping-pong under injected faults — the robustness demo.
//!
//! Not a paper figure: the paper measures healthy clusters. This driver
//! exercises the fault-injection subsystem end to end. A rendezvous-sized
//! ping-pong runs while CTS control messages are dropped with increasing
//! probability; each lost CTS costs the sender one retransmission timeout,
//! so latency inflates and the per-send profiler records the retry work.
//!
//! Each sweep point itself runs through the crash-proof runner
//! ([`crate::runner`]) — the campaign engine's own per-point guard nests
//! around it, and the reps share the point's deadline: a rep cancelled at
//! it fails the whole point rather than shrink its sample. In the demo point, one repetition's first attempt
//! deliberately panics (it must recover on a retry seed) and one
//! repetition runs under a total CTS black-out (it must fail cleanly after
//! exhausting retransmissions, without hanging, while the surviving
//! repetitions still produce the median/decile bands).

use mpisim::pingpong::{self, PingPongConfig};
use mpisim::Cluster;
use simcore::{FaultPlan, JitterFamily, Series, SimTime, Summary};
use topology::henri;

use super::Fidelity;
use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::codec::{Dec, Enc};
use crate::protocol::{build_cluster, ProtocolConfig};
use crate::report::{Check, FigureData, RunOutcome};
use crate::runner::{self, RunStatus};

/// Rendezvous-sized message: far above henri's 64 KiB eager threshold, so
/// every send performs the RTS/CTS handshake the faults target.
const MSG_SIZE: usize = 256 * 1024;

/// Simulated-time ceiling per repetition: orders of magnitude above any
/// plausible completion, but finite, so a pathological schedule trips the
/// engine's budget watchdog instead of hanging the campaign.
const REP_BUDGET: SimTime = SimTime(2 * SimTime::SEC.0);

/// Repetition index whose first attempt panics (recovery demo).
const CRASH_REP: u32 = 1;
/// Repetition index that runs under a total CTS black-out (failure demo).
const BLACKOUT_REP: u32 = 2;

/// CTS drop probabilities of the sweep.
const PROBS: [f64; 3] = [0.0, 0.15, 0.35];

/// Measurements of one successful repetition.
struct RepOutcome {
    lat_us: f64,
    retries: u64,
    retrans_bytes: u64,
    retry_wait_s: f64,
}

fn pingpong_cfg(fidelity: Fidelity) -> PingPongConfig {
    PingPongConfig {
        size: MSG_SIZE,
        reps: fidelity.lat_reps().max(6),
        warmup: 1,
        mtag: 0xFA,
    }
}

/// One repetition: fresh cluster, injected plan, profiled ping-pong.
fn run_rep(
    pp: PingPongConfig,
    plan: &FaultPlan,
    seed: u64,
    rep: u64,
) -> Result<RepOutcome, mpisim::ClusterError> {
    let proto = ProtocolConfig::new(henri(), None);
    let family = JitterFamily::new(seed);
    let mut cluster: Cluster = build_cluster(&proto, &family, rep);
    cluster.apply_faults(plan)?;
    cluster.set_time_budget(Some(REP_BUDGET));
    cluster.enable_profiling();
    let res = pingpong::try_run(&mut cluster, pp)?;
    let mut out = RepOutcome {
        lat_us: res.median_latency_us(),
        retries: 0,
        retrans_bytes: 0,
        retry_wait_s: 0.0,
    };
    for rec in cluster.send_profile() {
        out.retries += rec.retries as u64;
        out.retrans_bytes += rec.retrans_bytes;
        out.retry_wait_s += rec.retry_wait.as_secs_f64();
    }
    Ok(out)
}

/// Inner-campaign result of one drop-probability sweep point.
struct SweepOut {
    lats: Vec<f64>,
    rets: Vec<f64>,
    failures: usize,
}

/// Inner-campaign result of the crash/black-out demo point.
struct DemoOut {
    lats: Vec<f64>,
    recovered: bool,
    crash_status: &'static str,
    crash_attempts: u32,
    blackout_failed: bool,
    partial: bool,
    runs: Vec<RunOutcome>,
}

/// Map a persisted status label back to the `&'static str` the runner
/// hands out (see [`RunStatus::label`]); unknown labels mean a stale or
/// corrupt entry.
fn intern_status(s: &str) -> Option<&'static str> {
    ["ok", "recovered", "failed", "timeout"]
        .into_iter()
        .find(|l| *l == s)
}

/// Registry driver for the faulted ping-pong (3 drop-probability sweep
/// points plus the crash/black-out demo point).
pub struct FaultedPingpong;

impl Experiment for FaultedPingpong {
    fn name(&self) -> &'static str {
        "faulted_pingpong"
    }

    fn anchor(&self) -> &'static str {
        "robustness extension (fault injection)"
    }

    fn plan(&self, _fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut plan: Vec<SweepPoint> = PROBS
            .iter()
            .enumerate()
            .map(|(i, p)| SweepPoint::new(i, format!("CTS drop p = {}", p)))
            .collect();
        plan.push(SweepPoint::new(PROBS.len(), "crash/black-out demo"));
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let pp = pingpong_cfg(ctx.fidelity);
        let reps = ctx.fidelity.reps().max(4);
        if point.index < PROBS.len() {
            let p = PROBS[point.index];
            let base = FaultPlan::new(ctx.seed).with_cts_drop(p);
            let inner = runner::run_campaign(reps, ctx.seed, |rep, seed| {
                let plan = FaultPlan { seed, ..base.clone() };
                run_rep(pp, &plan, seed, rep as u64)
            })
            .unless_timed_out()?;
            Ok(Box::new(SweepOut {
                lats: inner.values.iter().map(|(_, v)| v.lat_us).collect(),
                rets: inner.values.iter().map(|(_, v)| v.retries as f64).collect(),
                failures: inner.failed(),
            }))
        } else {
            let demo_plan = FaultPlan::new(ctx.seed).with_cts_drop(0.25);
            let blackout_plan = FaultPlan::new(ctx.seed).with_cts_drop(1.0);
            let mut crash_attempts = 0u32;
            let demo = runner::run_campaign(reps, ctx.seed, |rep, seed| {
                if rep == CRASH_REP {
                    crash_attempts += 1;
                    if crash_attempts == 1 {
                        panic!("injected crash: first attempt of rep {}", rep);
                    }
                }
                let base = if rep == BLACKOUT_REP { &blackout_plan } else { &demo_plan };
                let plan = FaultPlan { seed, ..base.clone() };
                run_rep(pp, &plan, seed, rep as u64)
            })
            .unless_timed_out()?;

            // Enrich the per-rep outcomes with the retry work of the reps
            // that produced data.
            let mut runs = demo.outcomes();
            for (rep, v) in &demo.values {
                let r = &mut runs[*rep as usize];
                r.retries = v.retries;
                r.retrans_bytes = v.retrans_bytes;
                r.retry_wait_s = v.retry_wait_s;
            }
            Ok(Box::new(DemoOut {
                lats: demo.values.iter().map(|(_, v)| v.lat_us).collect(),
                recovered: matches!(
                    demo.records[CRASH_REP as usize].status,
                    RunStatus::Recovered { .. }
                ),
                crash_status: demo.records[CRASH_REP as usize].status.label(),
                crash_attempts,
                blackout_failed: matches!(
                    demo.records[BLACKOUT_REP as usize].status,
                    RunStatus::Failed { .. }
                ),
                partial: demo.is_partial(),
                runs,
            }))
        }
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        let mut e = Enc::new();
        if let Some(p) = value.downcast_ref::<SweepOut>() {
            e.u8(0).f64s(&p.lats).f64s(&p.rets).usize(p.failures);
        } else if let Some(p) = value.downcast_ref::<DemoOut>() {
            e.u8(1)
                .f64s(&p.lats)
                .bool(p.recovered)
                .str(p.crash_status)
                .u32(p.crash_attempts)
                .bool(p.blackout_failed)
                .bool(p.partial)
                .usize(p.runs.len());
            for r in &p.runs {
                e.u32(r.rep)
                    .u64(r.seed)
                    .str(r.status)
                    .opt_str(&r.error)
                    .u64(r.retries)
                    .u64(r.retrans_bytes)
                    .f64(r.retry_wait_s);
            }
        } else {
            return None;
        }
        Some(e.into_bytes())
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        let mut d = Dec::new(bytes);
        match d.u8()? {
            0 => {
                let p = SweepOut { lats: d.f64s()?, rets: d.f64s()?, failures: d.usize()? };
                d.finish(Box::new(p) as PointValue)
            }
            1 => {
                let lats = d.f64s()?;
                let recovered = d.bool()?;
                let crash_status = intern_status(&d.str()?)?;
                let crash_attempts = d.u32()?;
                let blackout_failed = d.bool()?;
                let partial = d.bool()?;
                let n = d.usize()?;
                let mut runs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    runs.push(RunOutcome {
                        rep: d.u32()?,
                        seed: d.u64()?,
                        status: intern_status(&d.str()?)?,
                        error: d.opt_str()?,
                        retries: d.u64()?,
                        retrans_bytes: d.u64()?,
                        retry_wait_s: d.f64()?,
                    });
                }
                let p = DemoOut {
                    lats,
                    recovered,
                    crash_status,
                    crash_attempts,
                    blackout_failed,
                    partial,
                    runs,
                };
                d.finish(Box::new(p) as PointValue)
            }
            _ => None,
        }
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let reps = fidelity.reps().max(4);
        let mut lat = Series::new("latency");
        let mut retries_series = Series::new("retries per rep");
        let mut sweep_failures = 0usize;
        let mut retries_at = Vec::new();
        let mut lat_at = Vec::new();
        for (pi, &p) in PROBS.iter().enumerate() {
            let sweep = expect_value::<SweepOut>(points, pi);
            sweep_failures += sweep.failures;
            lat.push(p, &sweep.lats);
            retries_series.push(p, &sweep.rets);
            lat_at.push(Summary::of(&sweep.lats).median);
            retries_at.push(Summary::of(&sweep.rets).median);
        }

        let demo = expect_value::<DemoOut>(points, PROBS.len());
        let bands = Summary::of(&demo.lats);

        let checks = vec![
            Check::new(
                "healthy plan needs no retries",
                retries_at[0] == 0.0 && sweep_failures == 0,
                format!(
                    "median retries {} at p=0, {} failed sweep rep(s)",
                    retries_at[0], sweep_failures
                ),
            ),
            Check::new(
                "retry work grows with drop probability",
                retries_at[2] > retries_at[1] && retries_at[1] > 0.0,
                format!(
                    "median retries/rep {} / {} / {} at p = 0 / 0.15 / 0.35",
                    retries_at[0], retries_at[1], retries_at[2]
                ),
            ),
            Check::new(
                "dropped CTSes inflate latency",
                lat_at[2] > lat_at[0],
                format!("{:.1} µs at p=0.35 vs {:.1} µs healthy", lat_at[2], lat_at[0]),
            ),
            Check::new(
                "crashed rep recovers on a fresh seed",
                demo.recovered && demo.crash_attempts == 2,
                format!(
                    "rep {} status {:?} after {} attempt(s)",
                    CRASH_REP, demo.crash_status, demo.crash_attempts
                ),
            ),
            Check::new(
                "black-out rep fails cleanly, bands from survivors",
                demo.blackout_failed && demo.partial && bands.n == (reps as usize - 1),
                format!(
                    "{} of {} reps survived, median {:.1} µs [{:.1}, {:.1}]",
                    bands.n, reps, bands.median, bands.d1, bands.d9
                ),
            ),
        ];

        vec![FigureData {
            id: "faulted_pingpong",
            title: format!(
                "Rendezvous ping-pong ({} KiB) under injected CTS drops (henri)",
                MSG_SIZE / 1024
            ),
            xlabel: "CTS drop probability",
            ylabel: "latency (us)",
            series: vec![lat, retries_series],
            notes: vec![
                "robustness extension, not a paper figure: each dropped clear-to-send costs the \
                 sender one retransmission timeout (exponential backoff from 16x wire latency)"
                    .into(),
                format!(
                    "crash-proof campaign: rep {} panics once and recovers on a retry seed; rep {} \
                     runs a total CTS black-out and is reported as a partial result",
                    CRASH_REP, BLACKOUT_REP
                ),
            ],
            checks,
            runs: demo.runs.clone(),
        }]
    }
}

/// Run the faulted ping-pong figure.
pub fn run(fidelity: Fidelity) -> FigureData {
    campaign::run_experiment(&FaultedPingpong, &campaign::CampaignOptions::serial(fidelity))
        .figures
        .remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulted_pingpong_quick_passes_checks() {
        let f = run(Fidelity::Quick);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        assert_eq!(f.series.len(), 2);
        assert!(f.is_partial(), "black-out rep must surface as partial");
        // Statuses cover all three outcomes.
        let statuses: Vec<&str> = f.runs.iter().map(|r| r.status).collect();
        assert!(statuses.contains(&"ok"));
        assert!(statuses.contains(&"recovered"));
        assert!(statuses.contains(&"failed"));
        // The failed rep carries its error text into the export.
        let failed = f.runs.iter().find(|r| r.status == "failed").unwrap();
        assert!(
            failed.error.as_deref().unwrap().contains("retransmissions"),
            "{:?}",
            failed.error
        );
        // JSON export surfaces the retries.
        let json = crate::results::figure_to_json(&f);
        assert!(json.contains("\"runs\":[{\"rep\":0"));
        assert!(json.contains("\"status\":\"recovered\""));
        assert!(json.contains("\"status\":\"failed\""));
    }

    #[test]
    fn empty_plan_matches_healthy_run() {
        // A rep with an empty fault plan must be byte-identical to the same
        // seed without any fault machinery engaged.
        let pp = pingpong_cfg(Fidelity::Quick);
        let healthy = {
            let proto = ProtocolConfig::new(henri(), None);
            let family = JitterFamily::new(7);
            let mut cluster = build_cluster(&proto, &family, 0);
            pingpong::run(&mut cluster, pp).median_latency_us()
        };
        let injected = run_rep(pp, &FaultPlan::new(7), 7, 0).unwrap();
        assert_eq!(healthy, injected.lat_us);
        assert_eq!(injected.retries, 0);
    }
}
