//! Crash-proof experiment campaigns.
//!
//! A campaign is a sequence of seeded repetitions of one measurement. The
//! healthy drivers run their reps inline — a panic aborts the whole figure.
//! Fault-injection experiments cannot afford that: a single unlucky rep
//! (exhausted rendezvous retries, a wedged engine, a genuine bug tripped by
//! a rare schedule) would throw away every other rep's data. This runner
//! executes each repetition under [`std::panic::catch_unwind`], retries a
//! failed rep **once** with a freshly derived seed, and otherwise records a
//! structured failure so the campaign still produces its median/decile
//! bands from the surviving repetitions. That policy, `retry_once`, is
//! also the one the campaign engine applies to every sweep point.
//!
//! Panics raised inside a repetition are silenced (no backtrace spam on
//! stderr) via a process-global hook that defers to the previous hook
//! unless the current thread is inside a guarded repetition.

use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::Duration;

use simcore::cancel::{self, CancelToken};
use simcore::telemetry::{self, Journal};

use crate::report::RunOutcome;

/// How one repetition of a campaign ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// First attempt completed.
    Completed,
    /// First attempt failed; the retry with a fresh seed completed.
    Recovered {
        /// Seed of the failed first attempt.
        failed_seed: u64,
        /// Error text of the failed first attempt.
        error: String,
    },
    /// Both attempts failed; no data from this rep.
    Failed {
        /// Error text of the last attempt.
        error: String,
    },
    /// The attempt blew its wall-clock deadline and was cooperatively
    /// cancelled (see [`simcore::cancel`]). Terminal: a timed-out attempt
    /// is not retried — the retry would spend the same budget wedging the
    /// same way, doubling the campaign's worst-case wall time.
    TimedOut {
        /// Error text of the cancelled attempt (names the deadline and the
        /// engine's stall diagnostic).
        error: String,
    },
}

impl RunStatus {
    /// Short status label used in exports
    /// ("ok" / "recovered" / "failed" / "timeout").
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Completed => "ok",
            RunStatus::Recovered { .. } => "recovered",
            RunStatus::Failed { .. } => "failed",
            RunStatus::TimedOut { .. } => "timeout",
        }
    }

    /// Error text, if any attempt failed.
    pub fn error(&self) -> Option<&str> {
        match self {
            RunStatus::Completed => None,
            RunStatus::Recovered { error, .. }
            | RunStatus::Failed { error }
            | RunStatus::TimedOut { error } => Some(error),
        }
    }

    /// True when the repetition produced no data (failed or timed out).
    pub fn is_lost(&self) -> bool {
        matches!(self, RunStatus::Failed { .. } | RunStatus::TimedOut { .. })
    }
}

/// Record of one repetition: which seed finally ran and how it went.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Repetition index.
    pub rep: u32,
    /// Seed of the attempt the record describes (the retry seed for
    /// recovered reps).
    pub seed: u64,
    /// Outcome.
    pub status: RunStatus,
}

impl RunRecord {
    /// Convert to the export form attached to [`crate::report::FigureData`].
    pub fn outcome(&self) -> RunOutcome {
        RunOutcome {
            rep: self.rep,
            seed: self.seed,
            status: self.status.label(),
            error: self.status.error().map(str::to_owned),
            ..Default::default()
        }
    }
}

/// Result of a whole campaign: per-rep records plus the values of the
/// successful repetitions (in rep order).
#[derive(Clone, Debug)]
pub struct Campaign<R> {
    /// One record per repetition, including failed ones.
    pub records: Vec<RunRecord>,
    /// `(rep, value)` for every successful repetition.
    pub values: Vec<(u32, R)>,
}

impl<R> Campaign<R> {
    /// Number of repetitions that produced no data.
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.status.is_lost()).count()
    }

    /// True when at least one rep failed permanently (the campaign's
    /// statistics cover only the surviving reps).
    pub fn is_partial(&self) -> bool {
        self.failed() > 0
    }

    /// Export records as [`RunOutcome`]s for a figure.
    pub fn outcomes(&self) -> Vec<RunOutcome> {
        self.records.iter().map(RunRecord::outcome).collect()
    }

    /// The campaign, or the error of its first timed-out rep. The
    /// survivors of a deadline-cut campaign are not the measurement that
    /// was asked for, so the enclosing sweep point must fail (and stay out
    /// of the result store) instead of reporting them.
    pub(crate) fn unless_timed_out(self) -> Result<Campaign<R>, String> {
        match self
            .records
            .iter()
            .find(|r| matches!(r.status, RunStatus::TimedOut { .. }))
        {
            Some(r) => Err(r.status.error().unwrap_or_default().to_owned()),
            None => Ok(self),
        }
    }
}

thread_local! {
    static GUARDED: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Install (once, process-wide) a panic hook that stays silent while the
/// current thread runs a guarded repetition and defers to the previously
/// installed hook everywhere else.
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !GUARDED.with(|g| g.get()) {
                prev(info);
            }
        }));
    });
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` with panics caught and silenced; an `Err` return and a panic
/// both come back as the error string. Nests: `retry_once` guards whole
/// sweep points and, inside them, `run_campaign`'s repetitions, so the
/// guard flag is saved and restored rather than reset.
pub fn guarded<R, E: fmt::Display>(f: impl FnOnce() -> Result<R, E>) -> Result<R, String> {
    install_quiet_hook();
    let prev = GUARDED.with(|g| g.replace(true));
    let caught = panic::catch_unwind(AssertUnwindSafe(f));
    GUARDED.with(|g| g.set(prev));
    match caught {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!("panic: {}", panic_message(payload))),
    }
}

/// Derive the retry seed for a failed repetition. SplitMix64-style mix of
/// the original seed and the rep index — deterministic, but disjoint from
/// every first-attempt seed the campaign uses.
pub fn retry_seed(seed: u64, rep: u32) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rep as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How [`retry_once`] ended: the seed of the attempt it describes (the
/// retry seed once the first attempt failed), that attempt's status and
/// value, and its telemetry journal when recording.
pub(crate) struct Attempt<R> {
    /// Seed of the described attempt.
    pub seed: u64,
    /// Outcome.
    pub status: RunStatus,
    /// The measurement, when an attempt succeeded.
    pub value: Option<R>,
    /// Journal of the described attempt (`None` unless recording).
    pub journal: Option<Journal>,
}

/// The crate's one retry policy, shared by the campaign engine's sweep
/// points and [`run_campaign`]'s repetitions.
///
/// `attempt(first)` runs [`guarded`]; a failed attempt is retried once as
/// `attempt(retry)`. With `timeout` set, each attempt runs under a fresh
/// deadline [`CancelToken`]; without one it runs under the caller's
/// ambient [`cancel::current`] token, so repetitions nested in a sweep
/// point share that point's deadline. An attempt that fails with its token
/// cancelled is [`RunStatus::TimedOut`] and terminal: a retry would spend
/// the same budget wedging the same way. With `record`, each attempt runs
/// under a fresh telemetry recorder.
pub(crate) fn retry_once<R, E: fmt::Display>(
    [first, retry]: [u64; 2],
    timeout: Option<Duration>,
    record: bool,
    mut attempt: impl FnMut(u64) -> Result<R, E>,
) -> Attempt<R> {
    let mut run = |seed: u64, ok: RunStatus| {
        if record {
            telemetry::install();
        }
        let token = timeout
            .map(CancelToken::with_deadline)
            .or_else(cancel::current);
        let mut guarded_attempt = || guarded(|| attempt(seed));
        let res = match &token {
            Some(t) => cancel::scoped(t.clone(), guarded_attempt),
            None => guarded_attempt(),
        };
        let journal = if record { telemetry::take() } else { None };
        let (status, value) = match res {
            Ok(v) => (ok, Some(v)),
            // Only a *failed* attempt counts as timed out: a value computed
            // just as the deadline passed is still a valid measurement.
            Err(error) if token.is_some_and(|t| t.is_cancelled()) => {
                (RunStatus::TimedOut { error }, None)
            }
            Err(error) => (RunStatus::Failed { error }, None),
        };
        Attempt {
            seed,
            status,
            value,
            journal,
        }
    };
    let a = run(first, RunStatus::Completed);
    match a.status {
        RunStatus::Failed { error } => run(
            retry,
            RunStatus::Recovered {
                failed_seed: first,
                error,
            },
        ),
        status => Attempt { status, ..a },
    }
}

/// Run `reps` repetitions of `attempt` crash-proof.
///
/// `attempt(rep, seed)` measures one repetition with the given seed and may
/// return an error **or panic**; both count as a failed attempt. The first
/// attempt of rep `i` uses `base_seed + i` (matching the seeded-repetition
/// convention of the healthy drivers); each rep goes through
/// `retry_once` with [`retry_seed`]`(base_seed, i)` as its retry seed and
/// under the caller's ambient deadline. A rep that produced no data is
/// recorded as [`RunStatus::Failed`] or [`RunStatus::TimedOut`].
pub fn run_campaign<R, E: fmt::Display>(
    reps: u32,
    base_seed: u64,
    mut attempt: impl FnMut(u32, u64) -> Result<R, E>,
) -> Campaign<R> {
    let mut records = Vec::with_capacity(reps as usize);
    let mut values = Vec::new();
    for rep in 0..reps {
        let seeds = [
            base_seed.wrapping_add(rep as u64),
            retry_seed(base_seed, rep),
        ];
        let a = retry_once(seeds, None, false, |seed| attempt(rep, seed));
        values.extend(a.value.map(|v| (rep, v)));
        records.push(RunRecord {
            rep,
            seed: a.seed,
            status: a.status,
        });
    }
    Campaign { records, values }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_campaign_completes_every_rep() {
        let c = run_campaign(4, 100, |rep, seed| -> Result<u64, String> {
            assert_eq!(seed, 100 + rep as u64);
            Ok(seed * 2)
        });
        assert_eq!(c.records.len(), 4);
        assert!(c.records.iter().all(|r| r.status == RunStatus::Completed));
        assert_eq!(c.values.len(), 4);
        assert!(!c.is_partial());
        assert_eq!(c.failed(), 0);
    }

    #[test]
    fn panicking_rep_is_retried_with_fresh_seed() {
        let mut attempts = Vec::new();
        let c = run_campaign(3, 7, |rep, seed| -> Result<u64, String> {
            attempts.push((rep, seed));
            if rep == 1 && seed == 8 {
                panic!("injected crash in rep 1");
            }
            Ok(seed)
        });
        // Rep 1 ran twice: original seed 8, then the derived retry seed.
        assert_eq!(attempts.len(), 4);
        assert_eq!(attempts[2], (1, retry_seed(7, 1)));
        assert_eq!(c.values.len(), 3, "recovered rep still contributes");
        match &c.records[1].status {
            RunStatus::Recovered { failed_seed, error } => {
                assert_eq!(*failed_seed, 8);
                assert!(error.contains("injected crash"), "{}", error);
            }
            s => panic!("expected recovery, got {:?}", s),
        }
        assert!(!c.is_partial());
    }

    #[test]
    fn twice_failed_rep_yields_partial_campaign() {
        let c = run_campaign(3, 0, |rep, _seed| -> Result<u64, String> {
            if rep == 2 {
                Err("transfer failed after 9 retries".into())
            } else {
                Ok(1)
            }
        });
        assert_eq!(c.values.len(), 2);
        assert!(c.is_partial());
        assert_eq!(c.failed(), 1);
        let out = c.outcomes();
        assert_eq!(out[2].status, "failed");
        assert!(out[2].error.as_deref().unwrap().contains("9 retries"));
        // Median/decile bands still computable from survivors.
        let vals: Vec<f64> = c.values.iter().map(|&(_, v)| v as f64).collect();
        assert_eq!(simcore::Summary::of(&vals).n, 2);
    }

    #[test]
    fn retry_seeds_are_disjoint_from_first_attempt_seeds() {
        let base = 0xC0FFEE;
        for rep in 0..32 {
            let fresh = retry_seed(base, rep);
            for r2 in 0..32u64 {
                assert_ne!(fresh, base + r2);
            }
        }
    }

    #[test]
    fn mixed_panic_and_error_attempts() {
        // First attempt panics, retry errors: permanent failure with the
        // *second* error recorded.
        let c = run_campaign(1, 5, |_, seed| -> Result<(), String> {
            if seed == 5 {
                panic!("boom");
            }
            Err("fabric black-out".into())
        });
        match &c.records[0].status {
            RunStatus::Failed { error } => assert!(error.contains("black-out"), "{}", error),
            s => panic!("expected failure, got {:?}", s),
        }
    }

    #[test]
    fn cancelled_ambient_token_times_out_without_retry() {
        // A rep nested in a sweep point whose deadline already tripped:
        // the failure is a timeout, not a flaky attempt worth retrying,
        // and the campaign refuses to stand in for the point's value.
        let token = CancelToken::new();
        token.cancel();
        let mut seeds = Vec::new();
        let c = cancel::scoped(token, || {
            run_campaign(2, 40, |_, seed| -> Result<u64, String> {
                seeds.push(seed);
                Err("engine cancelled".into())
            })
        });
        assert_eq!(seeds, [40, 41], "one attempt per rep, no retry");
        for r in &c.records {
            assert_eq!(r.status.label(), "timeout");
            assert!(r.status.is_lost());
        }
        let err = c.unless_timed_out().expect_err("timed-out campaign");
        assert!(err.contains("cancelled"), "{}", err);
        // Without an ambient token the same failure is retried once, and a
        // campaign with only failed reps stands (the black-out demo).
        let c = run_campaign(1, 40, |_, _| -> Result<u64, String> { Err("flaky".into()) });
        assert_eq!(c.records[0].status.label(), "failed");
        assert!(c.unless_timed_out().is_ok());
    }

    /// A timer storm that never quiesces; only cancellation stops it.
    fn wedge() -> Result<u64, String> {
        let mut e = simcore::Engine::new();
        e.after(simcore::SimTime::PS, 1);
        e.try_run(|eng, _| {
            eng.after(simcore::SimTime::PS, 1);
        })
        .map_err(|err| err.to_string())?;
        unreachable!("the storm never runs dry");
    }

    #[test]
    fn deadline_timeout_is_terminal() {
        let budget = Some(Duration::from_millis(30));
        // A wedged first attempt times out on its own seed: no retry ran.
        let a = retry_once([1, 2], budget, false, |_| wedge());
        assert_eq!((a.seed, a.status.label()), (1, "timeout"));
        let error = a.status.error().unwrap();
        assert!(
            error.contains("cancelled") && error.contains("deadline"),
            "{}",
            error
        );
        // A panicking first attempt is retried, and the wedged retry times
        // out on the retry seed under its own fresh deadline.
        let a = retry_once([1, 2], budget, false, |seed| {
            if seed == 1 {
                panic!("flaky first attempt");
            }
            wedge()
        });
        assert_eq!((a.seed, a.status.label()), (2, "timeout"));
    }
}
