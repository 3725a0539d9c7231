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
use crate::campaign::{PointCtx, Sweep, Values};
use crate::codec::Either;
use crate::protocol::{build_cluster, ProtocolConfig};
use crate::report::{Check, FigureData, RunOutcome};
use crate::runner;

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

/// One point of the faulted ping-pong plan.
pub(crate) enum FaultPoint {
    /// Every rep under one CTS drop probability.
    CtsDrop(f64),
    /// The crash/black-out demo.
    Demo,
}

/// Registry driver for the faulted ping-pong (3 drop-probability sweep
/// points plus the crash/black-out demo point).
pub(crate) struct FaultedPingpong;

impl Sweep for FaultedPingpong {
    const NAME: &'static str = "faulted_pingpong";
    const ANCHOR: &'static str = "robustness extension (fault injection)";
    type Point = FaultPoint;
    /// A drop probability: the surviving reps' latencies (µs) and retry
    /// counts, and how many reps failed. The demo: the surviving reps'
    /// latencies, the crashing rep's attempts, and every rep's outcome
    /// with its retry work.
    type Value = Either<(Vec<f64>, Vec<f64>, usize), (Vec<f64>, usize, Vec<RunOutcome>)>;

    fn sweep(&self, _fidelity: Fidelity) -> Vec<(String, FaultPoint)> {
        let mut plan: Vec<(String, FaultPoint)> = PROBS
            .iter()
            .map(|&p| (format!("CTS drop p = {}", p), FaultPoint::CtsDrop(p)))
            .collect();
        plan.push(("crash/black-out demo".to_string(), FaultPoint::Demo));
        plan
    }

    fn measure(&self, point: &FaultPoint, ctx: &PointCtx<'_>) -> Result<Self::Value, String> {
        let pp = pingpong_cfg(ctx.fidelity);
        let reps = ctx.fidelity.reps().max(4);
        if let FaultPoint::CtsDrop(p) = *point {
            let base = FaultPlan::new(ctx.seed).with_cts_drop(p);
            let inner = runner::run_campaign(reps, ctx.seed, |rep, seed| {
                let plan = FaultPlan { seed, ..base.clone() };
                run_rep(pp, &plan, seed, rep as u64)
            })
            .unless_timed_out()?;
            return Ok(Either::Left((
                inner.values.iter().map(|(_, v)| v.lat_us).collect(),
                inner.values.iter().map(|(_, v)| v.retries as f64).collect(),
                inner.failed(),
            )));
        }
        let demo_plan = FaultPlan::new(ctx.seed).with_cts_drop(0.25);
        let blackout_plan = FaultPlan::new(ctx.seed).with_cts_drop(1.0);
        let mut crash_attempts = 0usize;
        let demo = runner::run_campaign(reps, ctx.seed, |rep, seed| {
            if rep == CRASH_REP {
                crash_attempts += 1;
                if crash_attempts == 1 {
                    panic!("injected crash: first attempt of rep {}", rep);
                }
            }
            let base = if rep == BLACKOUT_REP {
                &blackout_plan
            } else {
                &demo_plan
            };
            let plan = FaultPlan {
                seed,
                ..base.clone()
            };
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
        let lats = demo.values.iter().map(|(_, v)| v.lat_us).collect();
        Ok(Either::Right((lats, crash_attempts, runs)))
    }

    fn figures(&self, fidelity: Fidelity, values: Values<'_, Self::Value>) -> Vec<FigureData> {
        let reps = fidelity.reps().max(4);
        let mut lat = Series::new("latency");
        let mut retries_series = Series::new("retries per rep");
        let mut sweep_failures = 0usize;
        let mut retries_at = Vec::new();
        let mut lat_at = Vec::new();
        let mut values = values.iter();
        for (&p, v) in PROBS.iter().zip(values.by_ref()) {
            let (lats, rets, failures) = v.unwrap_left();
            sweep_failures += failures;
            lat.push(p, lats);
            retries_series.push(p, rets);
            lat_at.push(Summary::of(lats).median);
            retries_at.push(Summary::of(rets).median);
        }

        let (demo_lats, crash_attempts, runs) = values.next().expect("demo point").unwrap_right();
        let crash_status = runs[CRASH_REP as usize].status;
        let blackout_failed = runs[BLACKOUT_REP as usize].status == "failed";
        let partial = runs
            .iter()
            .any(|r| matches!(r.status, "failed" | "timeout"));
        let bands = Summary::of(demo_lats);

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
                crash_status == "recovered" && *crash_attempts == 2,
                format!(
                    "rep {} status {:?} after {} attempt(s)",
                    CRASH_REP, crash_status, crash_attempts
                ),
            ),
            Check::new(
                "black-out rep fails cleanly, bands from survivors",
                blackout_failed && partial && bands.n == (reps as usize - 1),
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
            runs: runs.clone(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_experiment, CampaignOptions};

    #[test]
    fn faulted_pingpong_quick_passes_checks() {
        let f = run_experiment(&FaultedPingpong, &CampaignOptions::serial(Fidelity::Quick))
            .figures
            .remove(0);
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
