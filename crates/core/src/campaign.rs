//! Declarative experiment campaigns: the [`Sweep`] declaration drivers
//! implement, and the parallel engine that executes sweep plans.
//!
//! Each figure/table driver declares itself once, as a [`Sweep`]: a name,
//! a paper anchor, a fidelity-aware list of typed points (a point's
//! position in the list is its index), a per-point measurement returning a
//! typed value, and a `figures` step that reads the values back in plan
//! order. The engine holds every driver as an object-safe
//! [`Experiment`] — a blanket impl over [`Sweep`] that erases points into
//! [`SweepPoint`]s and values into [`PointValue`]s, and owns the one
//! downcast and the one value codec ([`crate::codec::Codec`]). It flattens
//! the plans of every selected experiment into one work queue and executes
//! the points on a pool of `std::thread` workers.
//!
//! **Determinism.** A point's seed is derived *only* from the experiment
//! name and the point index ([`point_seed`]), never from execution order,
//! so a parallel run (`--jobs N`) produces byte-identical figures to a
//! serial one. Memoized baselines use a seed derived from their cache key
//! ([`baseline_seed`]) for the same reason.
//!
//! **Crash-proofness.** Every point runs through `runner::retry_once`,
//! the retry policy repetitions use too: each attempt is guarded
//! (catch_unwind + quiet panic hook), a failed point is retried once on a
//! fresh [`crate::runner::retry_seed`] and otherwise recorded as
//! [`RunStatus::Failed`] (or [`RunStatus::TimedOut`] at its deadline) so
//! the remaining points still reach `finalize`.
//!
//! **Baseline memoization.** The protocol's "alone" steps do not depend on
//! most sweep variables (communication alone is the same measurement at
//! every computing-core count; computation alone does not care about the
//! message size). Experiments share those runs through the
//! [`BaselineCache`], keyed by configuration content — which also lets
//! fig4, fig5 and table1 share entire contention points instead of
//! recomputing three overlapping placement sweeps.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use simcore::telemetry::{self, Journal, Lane, Record, RecordKind};
use simcore::{SimPaths, SimTime, SplitMix64};

use crate::codec::{self, Codec, Dec, Enc};
use crate::experiments::Fidelity;
use crate::report::FigureData;
use crate::runner::{self, RunStatus};
use crate::store::{Lookup, ResultStore};

/// Opaque per-point measurement value: a [`Sweep::Value`], erased.
pub type PointValue = Box<dyn Any + Send>;

/// One enumerable point of an experiment's sweep plan: a
/// [`Sweep::Point`], erased, with its plan position and label.
#[derive(Debug)]
pub struct SweepPoint {
    /// Position in the plan (dense, 0-based). Seeds and store keys derive
    /// from it.
    pub index: usize,
    /// Human-readable label ("lat @ 12 cores"), for progress and `--list`.
    pub label: String,
    point: Box<dyn Any + Send + Sync>,
}

/// Execution context handed to [`Sweep::measure`].
pub struct PointCtx<'a> {
    /// Sweep density / repetition selector of the campaign.
    pub fidelity: Fidelity,
    /// The point's deterministic seed ([`point_seed`] on the first
    /// attempt, [`runner::retry_seed`] of it on the retry).
    pub seed: u64,
    /// Cross-experiment baseline cache.
    pub baselines: &'a BaselineCache,
}

/// A typed sweep: the one declaration a figure/table driver writes.
/// Implementors are registered in [`crate::experiments`] as
/// [`Experiment`]s, which every `Sweep` is.
pub trait Sweep: Sync {
    /// Registry name (unique, stable; used by `repro --only` and the
    /// store keys).
    const NAME: &'static str;
    /// Where in the paper the experiment lives ("§4.2, Figures 4a/4b").
    const ANCHOR: &'static str;
    /// Persist point values in the result store, so `--resume` restores
    /// them instead of recomputing.
    const DURABLE: bool = true;
    /// The coordinates of one sweep point.
    type Point: Send + Sync + 'static;
    /// What measuring one point yields.
    type Value: Codec + Send + 'static;

    /// The labelled points at the given fidelity, in plan order: a
    /// point's position is its index.
    fn sweep(&self, fidelity: Fidelity) -> Vec<(String, Self::Point)>;
    /// Measure one point. Runs on a worker thread; must derive all
    /// randomness from `ctx.seed` (or [`BaselineCache`] keys) so parallel
    /// and serial campaigns are bit-identical.
    fn measure(&self, point: &Self::Point, ctx: &PointCtx<'_>) -> Result<Self::Value, String>;
    /// Fold the values (in plan order) into figures.
    fn figures(&self, fidelity: Fidelity, values: Values<'_, Self::Value>) -> Vec<FigureData>;
}

/// The object-safe face of a [`Sweep`], which the registries and the
/// engine hold as `&dyn Experiment`. Its one implementation is the blanket
/// impl below.
pub trait Experiment: Sync {
    /// [`Sweep::NAME`].
    fn name(&self) -> &'static str;
    /// [`Sweep::ANCHOR`].
    fn anchor(&self) -> &'static str;
    /// The erased [`Sweep::sweep`]: dense, 0-based indices.
    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint>;
    /// [`Sweep::measure`] of a point of this experiment's plan.
    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String>;
    /// [`Sweep::figures`] over the executed points (in plan order).
    fn finalize(&self, fidelity: Fidelity, points: &[PointOutcome]) -> Vec<FigureData>;
    /// The value's exact bytes for the durable result store; `None` when
    /// the experiment is not [`Sweep::DURABLE`].
    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>>;
    /// Inverse of [`Experiment::encode_value`]. Returns `None` on any
    /// malformed or stale layout (the point is then recomputed).
    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue>;
}

impl<S: Sweep> Experiment for S {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn anchor(&self) -> &'static str {
        S::ANCHOR
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        self.sweep(fidelity)
            .into_iter()
            .enumerate()
            .map(|(index, (label, point))| SweepPoint {
                index,
                label,
                point: Box::new(point),
            })
            .collect()
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let p = point.point.downcast_ref::<S::Point>().unwrap_or_else(|| {
            panic!(
                "{}: point {} is not from this experiment's plan",
                S::NAME,
                point.index
            )
        });
        Ok(Box::new(self.measure(p, ctx)?))
    }

    fn finalize(&self, fidelity: Fidelity, points: &[PointOutcome]) -> Vec<FigureData> {
        self.figures(fidelity, Values::new(points))
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        if !S::DURABLE {
            return None;
        }
        value.downcast_ref::<S::Value>().map(codec::to_bytes)
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        if !S::DURABLE {
            return None;
        }
        let v: S::Value = codec::from_bytes(bytes)?;
        Some(Box::new(v))
    }
}

/// How one sweep point ended, plus its value when any attempt succeeded.
pub struct PointOutcome {
    /// Plan index.
    pub index: usize,
    /// Plan label.
    pub label: String,
    /// Seed of the attempt the outcome describes (retry seed when the
    /// first attempt failed).
    pub seed: u64,
    /// Completed / recovered / failed.
    pub status: RunStatus,
    /// The measurement, when one of the attempts succeeded.
    pub value: Option<PointValue>,
    /// Wall time spent executing the point (all attempts); zero when the
    /// point was restored from the result store.
    pub wall: Duration,
    /// Telemetry journal of the attempt the outcome describes, when the
    /// campaign ran with [`CampaignOptions::telemetry`] enabled.
    pub journal: Option<Journal>,
    /// True when the outcome was restored from the result store instead of
    /// being executed (resume path).
    pub restored: bool,
}

/// The typed values of one experiment's executed points, in plan order —
/// what [`Sweep::figures`] reads.
pub struct Values<'a, V> {
    points: &'a [PointOutcome],
    value: PhantomData<fn() -> V>,
}

impl<V> Clone for Values<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V> Copy for Values<'_, V> {}

impl<'a, V: 'static> Values<'a, V> {
    /// View `points` (the outcomes of a [`Sweep`] whose value type is `V`).
    pub fn new(points: &'a [PointOutcome]) -> Values<'a, V> {
        Values {
            points,
            value: PhantomData,
        }
    }

    /// Number of planned points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True for an empty plan.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The value of point `i`, panicking with the recorded error when the
    /// point failed both attempts (`finalize` runs guarded, so the
    /// experiment is reported partial and the campaign goes on).
    pub fn get(&self, i: usize) -> &'a V {
        let p = &self.points[i];
        match &p.value {
            Some(v) => Self::typed(p, v),
            None => panic!(
                "point {} ({}) failed: {}",
                i,
                p.label,
                p.status.error().unwrap_or("no error recorded")
            ),
        }
    }

    /// Every value in plan order ([`Values::get`] of each point).
    pub fn iter(self) -> impl Iterator<Item = &'a V> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The values of the points that produced one, in plan order.
    pub fn present(self) -> impl Iterator<Item = &'a V> {
        self.points
            .iter()
            .filter_map(|p| p.value.as_ref().map(|v| Self::typed(p, v)))
    }

    fn typed(p: &PointOutcome, v: &'a PointValue) -> &'a V {
        v.downcast_ref::<V>().unwrap_or_else(|| {
            panic!(
                "point {} ({}) has an unexpected value type",
                p.index, p.label
            )
        })
    }
}

/// Deterministic seed of `(experiment, point index)`: FNV-1a over the
/// experiment name, offset by the index, pushed through
/// [`simcore::SplitMix64`]. Unlike the old additive `base + size` schemes,
/// distinct points can never collide on a seed.
pub fn point_seed(experiment: &str, index: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in experiment.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix64::new(h.wrapping_add(index as u64)).next_u64()
}

/// Deterministic seed for a memoized baseline, derived from its cache key
/// alone so every requester computes (or reuses) the identical value.
pub fn baseline_seed(key: &str) -> u64 {
    point_seed(key, 0xBA5E)
}

/// A memo slot: empty, claimed by a computing worker, or holding the value.
enum SlotState {
    Empty,
    Computing,
    Ready(Arc<dyn Any + Send + Sync>),
}

struct MemoSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Default for MemoSlot {
    fn default() -> MemoSlot {
        MemoSlot {
            state: Mutex::new(SlotState::Empty),
            ready: Condvar::new(),
        }
    }
}

type Slot = Arc<MemoSlot>;

/// Concurrent memo table for baseline measurements shared across sweep
/// points (and across experiments of one campaign). Each key is computed
/// once — concurrent requesters block on the slot instead of recomputing —
/// with a seed derived from the key, so cached values are identical no
/// matter which point asks first.
///
/// Only *successful* computes are memoized: a compute that errors or
/// panics (model failure, cooperative cancellation on a per-point
/// deadline) resets its slot to empty, so the next requester retries under
/// its own seed-determined conditions instead of inheriting a poisoned
/// entry. Determinism makes the eventual successful value identical no
/// matter how many failed attempts preceded it.
#[derive(Default)]
pub struct BaselineCache {
    slots: Mutex<HashMap<String, Slot>>,
    calls: AtomicU64,
    computed: AtomicU64,
    /// Telemetry journals of computed baselines, keyed like `slots`. A
    /// baseline's journal depends only on its key (the seed derives from
    /// it), so the map content is deterministic no matter which worker
    /// computes first.
    journals: Mutex<BTreeMap<String, Journal>>,
}

impl BaselineCache {
    /// Empty cache.
    pub fn new() -> BaselineCache {
        BaselineCache::default()
    }

    /// Fetch the value under `key`, computing it with `f(baseline_seed(key))`
    /// on first use. Nested calls (a cached value that itself needs another
    /// baseline) are fine as long as keys do not form a cycle.
    ///
    /// Computation runs under [`telemetry::isolate`]: *which* sweep point
    /// happens to populate a shared slot is a scheduling race under
    /// `--jobs N`, so a baseline's internal events must never land in any
    /// point's journal — they are recorded into a per-key journal instead
    /// (see [`BaselineCache::take_journals`]), whose content depends only on
    /// the key.
    pub fn get_or_compute<T, F>(&self, key: &str, f: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce(u64) -> T,
    {
        self.get_or_compute_result(key, |seed| Ok(f(seed)))
            .expect("infallible baseline compute")
    }

    /// Fallible variant of [`BaselineCache::get_or_compute`]: an `Err` from
    /// `f` is returned to the caller but **never memoized** — the slot
    /// stays empty and the next requester computes afresh. This matters
    /// under per-point deadlines: a baseline compute cancelled by one
    /// point's timeout must not poison the shared cache and fail every
    /// later point that shares the baseline.
    pub fn get_or_compute_result<T, F>(&self, key: &str, f: F) -> Result<Arc<T>, String>
    where
        T: Any + Send + Sync,
        F: FnOnce(u64) -> Result<T, String>,
    {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let mut slots = self.slots.lock().expect("baseline cache poisoned");
            slots.entry(key.to_string()).or_default().clone()
        };
        {
            // Claim the slot, waiting out another worker's in-flight compute.
            let mut st = slot.state.lock().expect("baseline slot poisoned");
            loop {
                match &*st {
                    SlotState::Ready(v) => {
                        return Ok(Arc::clone(v).downcast::<T>().unwrap_or_else(|_| {
                            panic!("baseline cache type mismatch for key {:?}", key)
                        }))
                    }
                    SlotState::Computing => {
                        st = slot.ready.wait(st).expect("baseline slot poisoned");
                    }
                    SlotState::Empty => {
                        *st = SlotState::Computing;
                        break;
                    }
                }
            }
        }
        self.computed.fetch_add(1, Ordering::Relaxed);
        // Dropped on every exit path (an `Err` or an unwind included): a
        // slot still in `Computing` reverts to `Empty`, and waiters are
        // woken either way.
        struct Unclaim<'a>(&'a MemoSlot);
        impl Drop for Unclaim<'_> {
            fn drop(&mut self) {
                let mut st = self.0.state.lock().expect("baseline slot poisoned");
                if matches!(*st, SlotState::Computing) {
                    *st = SlotState::Empty;
                }
                drop(st);
                self.0.ready.notify_all();
            }
        }
        let _unclaim = Unclaim(&slot);
        let (res, journal) = telemetry::isolate(|| f(baseline_seed(key)));
        // The journal of a failed compute is dropped with it.
        let v = Arc::new(res?);
        if let Some(j) = journal {
            self.journals
                .lock()
                .expect("baseline journals poisoned")
                .insert(key.to_string(), j);
        }
        *slot.state.lock().expect("baseline slot poisoned") = SlotState::Ready(v.clone());
        Ok(v)
    }

    /// Drain the telemetry journals of every computed baseline, sorted by
    /// key (deterministic regardless of compute order).
    pub fn take_journals(&self) -> BTreeMap<String, Journal> {
        std::mem::take(&mut *self.journals.lock().expect("baseline journals poisoned"))
    }

    /// Total lookups (hits + computes) so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Lookups that actually ran the compute closure.
    pub fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Number of distinct baselines computed so far.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("baseline cache poisoned").len()
    }

    /// True when nothing has been memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Campaign execution options.
#[derive(Clone, Copy, Debug)]
pub struct CampaignOptions {
    /// Sweep density / repetitions.
    pub fidelity: Fidelity,
    /// Worker threads executing sweep points (min 1).
    pub jobs: usize,
    /// Record a telemetry [`Journal`] per point and merge them into the
    /// campaign report. Journals are keyed to sim-time and plan order only,
    /// so the merged journal is byte-identical at any `jobs` level.
    pub telemetry: bool,
    /// Per-point wall-clock deadline. Each attempt runs under a
    /// [`simcore::cancel::CancelToken`] with this budget; a wedged
    /// simulation is cooperatively cancelled at the next event boundary
    /// and the point is recorded as [`RunStatus::TimedOut`] instead of
    /// leaking its worker thread. `None` (the default) imposes no deadline — timeouts are
    /// wall-clock and therefore machine-dependent, so they are strictly
    /// opt-in.
    pub timeout: Option<Duration>,
}

impl CampaignOptions {
    /// Options with an explicit worker count.
    pub fn new(fidelity: Fidelity, jobs: usize) -> CampaignOptions {
        CampaignOptions {
            fidelity,
            jobs: jobs.max(1),
            telemetry: false,
            timeout: None,
        }
    }

    /// Single-worker options (the classic sequential behaviour).
    pub fn serial(fidelity: Fidelity) -> CampaignOptions {
        CampaignOptions::new(fidelity, 1)
    }

    /// Toggle telemetry recording.
    pub fn with_telemetry(mut self, on: bool) -> CampaignOptions {
        self.telemetry = on;
        self
    }

    /// Arm a per-point wall-clock deadline.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> CampaignOptions {
        self.timeout = timeout;
        self
    }
}

/// Binding of a campaign to a durable [`ResultStore`].
#[derive(Clone, Copy)]
pub struct StoreCtx<'a> {
    /// The store completed points are persisted to.
    pub store: &'a ResultStore,
    /// Restore previously persisted points instead of recomputing them.
    /// Restores are skipped while telemetry recording is on — a restored
    /// point has no journal, and serving it would change the merged trace;
    /// determinism makes the recomputation byte-identical anyway.
    pub resume: bool,
}

/// Version of the point payload layout: the campaign's status header and
/// the value codecs behind it. Part of the store key: bumping it orphans
/// old entries instead of misparsing them. v2: values encode through
/// [`Codec`] (fig7 lost its tag byte, ablations became a `Vec<f64>`,
/// faulted_pingpong's demo value shrank).
const POINT_FORMAT: u32 = 2;

/// Store key of one sweep point. Identity = experiment name, fidelity,
/// plan index and the hash-derived first-attempt seed ([`point_seed`]) —
/// so a change to the seeding scheme or the payload layout makes old
/// entries unreachable rather than wrong.
fn point_key(exp: &str, fidelity: Fidelity, index: usize) -> String {
    format!(
        "point/v{}/{}/{:?}/{}/{:016x}",
        POINT_FORMAT,
        exp,
        fidelity,
        index,
        point_seed(exp, index)
    )
}

/// Serialize a completed/recovered outcome (status header + the
/// experiment's value bytes). `None` for outcomes that must not be served
/// from the store (failures, timeouts, undurable experiments).
fn encode_outcome(exp: &dyn Experiment, o: &PointOutcome) -> Option<Vec<u8>> {
    let value = o.value.as_ref()?;
    let value_bytes = exp.encode_value(value)?;
    let mut e = Enc::new();
    match &o.status {
        RunStatus::Completed => {
            e.u8(0);
        }
        RunStatus::Recovered { failed_seed, error } => {
            e.u8(1).u64(*failed_seed).str(error);
        }
        RunStatus::Failed { .. } | RunStatus::TimedOut { .. } => return None,
    }
    e.u64(o.seed);
    let mut bytes = e.into_bytes();
    bytes.extend_from_slice(&value_bytes);
    Some(bytes)
}

/// Rebuild a [`PointOutcome`] from a stored payload. Verifies that the
/// recorded seeds match what this binary would derive for the point —
/// an entry from a different seeding scheme decodes to `None` and the
/// point is recomputed.
fn decode_outcome(
    exp: &dyn Experiment,
    point: &SweepPoint,
    bytes: &[u8],
) -> Option<PointOutcome> {
    let first = point_seed(exp.name(), point.index);
    let mut d = Dec::new(bytes);
    let (seed, status) = match d.u8()? {
        0 => (first, RunStatus::Completed),
        1 => {
            let failed_seed = d.u64()?;
            let error = d.str()?;
            if failed_seed != first {
                return None;
            }
            (
                runner::retry_seed(first, point.index as u32),
                RunStatus::Recovered { failed_seed, error },
            )
        }
        _ => return None,
    };
    if d.u64()? != seed {
        return None;
    }
    let value = exp.decode_value(d.rest())?;
    Some(PointOutcome {
        index: point.index,
        label: point.label.clone(),
        seed,
        status,
        value: Some(value),
        wall: Duration::ZERO,
        journal: None,
        restored: true,
    })
}

/// Result of one experiment inside a campaign.
pub struct ExperimentRun {
    /// Registry name.
    pub name: &'static str,
    /// The finalized figures (empty when `finalize` itself failed).
    pub figures: Vec<FigureData>,
    /// Executed sweep points.
    pub points: usize,
    /// Points that failed both attempts.
    pub failed_points: usize,
    /// Points cooperatively cancelled at their wall-clock deadline.
    pub timed_out_points: usize,
    /// Points restored from the result store instead of executed.
    pub restored_points: usize,
    /// Error text when `finalize` panicked (it runs guarded so one broken
    /// experiment cannot take down the rest of the campaign).
    pub finalize_error: Option<String>,
    /// Busy time: summed point execution time plus finalize. Under
    /// parallel execution this is work time, not elapsed wall time.
    pub busy: Duration,
    /// Total *simulated* time covered by the experiment's point journals.
    /// Deterministic (unlike `busy`); [`SimTime::ZERO`] with telemetry off.
    pub sim: SimTime,
}

impl ExperimentRun {
    /// Throughput over busy time.
    pub fn points_per_sec(&self) -> f64 {
        let s = self.busy.as_secs_f64();
        if s > 0.0 {
            self.points as f64 / s
        } else {
            f64::INFINITY
        }
    }

    /// True when any point produced no data or `finalize` failed — the
    /// run's figures do not cover the full plan.
    pub fn is_partial(&self) -> bool {
        self.failed_points > 0 || self.timed_out_points > 0 || self.finalize_error.is_some()
    }
}

/// Chaos-harness hook: an artificial pre-point delay (milliseconds) read
/// from `REPRO_POINT_DELAY_MS`. The kill-and-resume integration test uses
/// it to stretch a campaign enough to SIGKILL it mid-flight; unset (the
/// normal case) it costs one cached `Option` check per point.
fn chaos_point_delay() -> Option<Duration> {
    static DELAY: OnceLock<Option<Duration>> = OnceLock::new();
    *DELAY.get_or_init(|| {
        std::env::var("REPRO_POINT_DELAY_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
    })
}

/// Execute one sweep point through [`runner::retry_once`]: first attempt
/// on [`point_seed`], one retry on a fresh seed, structured failure
/// otherwise. With [`CampaignOptions::telemetry`] set, the outcome carries
/// the journal of the attempt it describes (the retry's journal when the
/// first attempt failed). With [`CampaignOptions::timeout`] set, each
/// attempt runs under its own deadline, and a timed-out attempt is
/// terminal ([`RunStatus::TimedOut`], no retry). With a [`StoreCtx`]
/// bound, a resumable outcome is restored instead of executed when
/// present, and a computed outcome is persisted before being returned.
fn execute_point(
    exp: &dyn Experiment,
    point: &SweepPoint,
    opts: &CampaignOptions,
    baselines: &BaselineCache,
    store: Option<&StoreCtx<'_>>,
) -> PointOutcome {
    let key = store.map(|_| point_key(exp.name(), opts.fidelity, point.index));
    if let (Some(s), Some(key)) = (store, key.as_deref()) {
        // Restored points carry no journal, so resume is bypassed while
        // recording (recomputation is byte-identical by determinism).
        if s.resume && !opts.telemetry {
            if let Lookup::Hit(bytes) = s.store.get(key) {
                if let Some(outcome) = decode_outcome(exp, point, &bytes) {
                    return outcome;
                }
                // Verified entry with a stale inner layout: recompute
                // (the fresh put below overwrites it).
            }
        }
    }
    if let Some(delay) = chaos_point_delay() {
        std::thread::sleep(delay);
    }
    let t0 = Instant::now();
    let first = point_seed(exp.name(), point.index);
    let seeds = [first, runner::retry_seed(first, point.index as u32)];
    let a = runner::retry_once(seeds, opts.timeout, opts.telemetry, |seed| {
        let ctx = PointCtx {
            fidelity: opts.fidelity,
            seed,
            baselines,
        };
        exp.run_point(point, &ctx)
    });
    let outcome = PointOutcome {
        index: point.index,
        label: point.label.clone(),
        seed: a.seed,
        status: a.status,
        value: a.value,
        wall: t0.elapsed(),
        journal: a.journal,
        restored: false,
    };
    if let (Some(s), Some(key)) = (store, key.as_deref()) {
        if let Some(payload) = encode_outcome(exp, &outcome) {
            // A failed put must not fail the point: the measurement is in
            // hand, only its durability is lost. Surface it on stderr.
            if let Err(e) = s.store.put(key, &payload) {
                eprintln!("warning: result store write failed for {}: {}", key, e);
            }
        }
    }
    outcome
}

/// Campaign-wide aggregates produced alongside the per-experiment runs.
pub struct CampaignReport {
    /// Baseline-cache lookups across the whole campaign.
    pub baseline_calls: u64,
    /// Baseline-cache lookups that actually computed (the rest were hits).
    pub baseline_computed: u64,
    /// Merged telemetry journal: every point's journal in plan order on one
    /// timeline, wrapped in per-point and per-experiment "campaign" spans.
    /// `None` when telemetry was off.
    pub journal: Option<Journal>,
}

/// Run a set of experiments as one campaign: every sweep point of every
/// experiment goes into a single work queue drained by `opts.jobs` worker
/// threads (so a short experiment's points fill the gaps of a long one),
/// then each experiment finalizes serially in the given order.
pub fn run_set(exps: &[&dyn Experiment], opts: &CampaignOptions) -> Vec<ExperimentRun> {
    run_set_with_report(exps, opts).0
}

/// [`run_set`] plus the campaign-wide [`CampaignReport`] (cache statistics
/// and, with [`CampaignOptions::telemetry`] on, the merged journal).
pub fn run_set_with_report(
    exps: &[&dyn Experiment],
    opts: &CampaignOptions,
) -> (Vec<ExperimentRun>, CampaignReport) {
    run_set_with_store(exps, opts, None)
}

/// [`run_set_with_report`] bound to a durable [`ResultStore`]: every
/// completed point is persisted as it finishes, and with
/// [`StoreCtx::resume`] set, previously persisted points are restored
/// instead of recomputed. Determinism makes the two paths
/// indistinguishable in the final figures — a resumed campaign's exports
/// are byte-identical to an uninterrupted run's.
pub fn run_set_with_store(
    exps: &[&dyn Experiment],
    opts: &CampaignOptions,
    store: Option<StoreCtx<'_>>,
) -> (Vec<ExperimentRun>, CampaignReport) {
    let cache = BaselineCache::new();
    let plans: Vec<Vec<SweepPoint>> = exps.iter().map(|e| e.plan(opts.fidelity)).collect();
    let tasks: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(ei, plan)| (0..plan.len()).map(move |pi| (ei, pi)))
        .collect();
    let mut outcomes = drain(tasks.len(), opts.jobs, |t| {
        let (ei, pi) = tasks[t];
        execute_point(exps[ei], &plans[ei][pi], opts, &cache, store.as_ref())
    })
    .into_iter();

    // Merge point journals in plan order onto one campaign timeline. The
    // merge depends only on plan order and sim-time, so the merged journal
    // is byte-identical at any worker count.
    let mut merged = if opts.telemetry {
        Some(Journal::default())
    } else {
        None
    };
    let mut offset = SimTime::ZERO;

    let runs = exps
        .iter()
        .zip(&plans)
        .map(|(exp, plan)| {
            let mut outcomes: Vec<PointOutcome> = outcomes.by_ref().take(plan.len()).collect();
            let exp_start = offset;
            if let Some(merged) = merged.as_mut() {
                for o in &mut outcomes {
                    if let Some(j) = o.journal.take() {
                        append_span(merged, &mut offset, o.label.clone(), j);
                    }
                }
                let name = exp.name().to_string();
                campaign_span(merged, exp_start, offset.saturating_sub(exp_start), name);
            }
            let point_time: Duration = outcomes.iter().map(|o| o.wall).sum();
            let count = |p: fn(&PointOutcome) -> bool| outcomes.iter().filter(|o| p(o)).count();
            let failed = count(|o| matches!(o.status, RunStatus::Failed { .. }));
            let timed_out = count(|o| matches!(o.status, RunStatus::TimedOut { .. }));
            let restored = count(|o| o.restored);
            let t0 = Instant::now();
            // Guarded: `Values::get` panics on a lost point, and one
            // partial experiment must not take down the figures of every
            // other experiment in the campaign.
            let (figures, finalize_error) =
                match runner::guarded(|| Ok::<_, String>(exp.finalize(opts.fidelity, &outcomes)))
                {
                    Ok(figures) => (figures, None),
                    Err(e) => (Vec::new(), Some(e)),
                };
            ExperimentRun {
                name: exp.name(),
                figures,
                points: outcomes.len(),
                failed_points: failed,
                timed_out_points: timed_out,
                restored_points: restored,
                finalize_error,
                busy: point_time + t0.elapsed(),
                sim: offset.saturating_sub(exp_start),
            }
        })
        .collect();

    // Shared baselines recorded under `isolate` merge last, in key order:
    // deterministic no matter which worker computed them.
    if let Some(merged) = merged.as_mut() {
        for (key, j) in cache.take_journals() {
            append_span(merged, &mut offset, format!("baseline: {}", key), j);
        }
    }

    let report = CampaignReport {
        baseline_calls: cache.calls(),
        baseline_computed: cache.computed(),
        journal: merged,
    };
    (runs, report)
}

/// Push a "campaign" span `[t, t + dur)` onto the merged journal.
fn campaign_span(merged: &mut Journal, t: SimTime, dur: SimTime, name: String) {
    merged.records.push(Record {
        t,
        kind: RecordKind::Complete {
            cat: "campaign",
            name,
            lane: Lane::Campaign,
            dur,
        },
    });
}

/// Append `j` at `offset` inside a campaign span named `name`, and move
/// `offset` past it.
fn append_span(merged: &mut Journal, offset: &mut SimTime, name: String, mut j: Journal) {
    let end = j.end_time();
    campaign_span(merged, *offset, end, name);
    j.shift(*offset);
    merged.append(j);
    *offset = SimTime(offset.0.saturating_add(end.0));
}

/// Execute one experiment's sweep points on `opts.jobs` worker threads and
/// return the raw outcomes in plan order, without the figure assembly —
/// for callers that consume point *values* rather than figures (the
/// prediction subsystem harvests training pairs this way). Honours the
/// result store exactly like [`run_set_with_store`]: completed points are
/// persisted as they finish and, with [`StoreCtx::resume`], restored
/// instead of recomputed. Outcome order depends only on the plan, never on
/// worker scheduling.
pub fn run_outcomes_with_store(
    exp: &dyn Experiment,
    opts: &CampaignOptions,
    store: Option<StoreCtx<'_>>,
) -> Vec<PointOutcome> {
    let cache = BaselineCache::new();
    let plan = exp.plan(opts.fidelity);
    drain(plan.len(), opts.jobs, |i| {
        execute_point(exp, &plan[i], opts, &cache, store.as_ref())
    })
}

/// The campaign's one worker pool: run `task(0)..task(n)` on up to `jobs`
/// scoped threads and return the results in index order, whatever order
/// the workers finished in. Workers run on fresh threads, so they
/// re-install the caller's path selection (DESIGN.md §13.6).
fn drain<T: Send>(n: usize, jobs: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let paths = SimPaths::current();
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, n.max(1)) {
            scope.spawn(|| {
                SimPaths::scoped(paths, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let v = task(i);
                    *slots[i].lock().expect("result slot poisoned") = Some(v);
                })
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every queued task executes")
        })
        .collect()
}

/// Run a single experiment (its own cache, no cross-experiment sharing).
pub fn run_experiment(exp: &dyn Experiment, opts: &CampaignOptions) -> ExperimentRun {
    run_set(&[exp], opts)
        .pop()
        .expect("one experiment in, one run out")
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;

    impl Sweep for Doubler {
        const NAME: &'static str = "doubler";
        const ANCHOR: &'static str = "test";
        const DURABLE: bool = false;
        type Point = usize;
        type Value = usize;

        fn sweep(&self, _f: Fidelity) -> Vec<(String, usize)> {
            (0..6).map(|i| (format!("x={}", i), i)).collect()
        }
        fn measure(&self, &x: &usize, ctx: &PointCtx<'_>) -> Result<usize, String> {
            if x == 3 && ctx.seed == point_seed("doubler", 3) {
                panic!("flaky first attempt");
            }
            if x == 5 {
                return Err("permanently broken".into());
            }
            Ok(x * 2)
        }
        fn figures(&self, _f: Fidelity, values: Values<'_, usize>) -> Vec<FigureData> {
            assert_eq!(values.len(), 6);
            for i in 0..5 {
                assert_eq!(*values.get(i), i * 2);
            }
            assert_eq!(values.present().count(), 5);
            Vec::new()
        }
    }

    #[test]
    fn engine_retries_and_records_failures() {
        let run = run_experiment(&Doubler, &CampaignOptions::serial(Fidelity::Quick));
        assert_eq!(run.points, 6);
        assert_eq!(run.failed_points, 1);
    }

    #[test]
    fn parallel_outcomes_match_serial() {
        for jobs in [2, 4] {
            let run = run_experiment(&Doubler, &CampaignOptions::new(Fidelity::Quick, jobs));
            assert_eq!(run.points, 6);
            assert_eq!(run.failed_points, 1);
        }
    }

    #[test]
    fn point_seeds_never_collide() {
        let mut seen = std::collections::HashSet::new();
        for exp in ["fig1", "fig6", "overlap"] {
            for i in 0..512 {
                assert!(seen.insert(point_seed(exp, i)), "collision at {}/{}", exp, i);
            }
        }
        // The old additive scheme collided when size sweeps overlapped
        // (seed + 64 from base A == seed + 4 from base A+60); the hash
        // also differs from every retry seed it could meet.
        for i in 0..64u32 {
            assert_ne!(
                point_seed("fig6", i as usize),
                runner::retry_seed(point_seed("fig6", i as usize), i)
            );
        }
    }

    /// A durable Doubler: same sweep, and its points can be restored from
    /// a store.
    struct DurableDoubler;

    impl Sweep for DurableDoubler {
        const NAME: &'static str = "durable_doubler";
        const ANCHOR: &'static str = "test";
        type Point = usize;
        type Value = usize;

        fn sweep(&self, _f: Fidelity) -> Vec<(String, usize)> {
            (0..4).map(|i| (format!("x={}", i), i)).collect()
        }
        fn measure(&self, &x: &usize, ctx: &PointCtx<'_>) -> Result<usize, String> {
            if x == 1 && ctx.seed == point_seed("durable_doubler", 1) {
                panic!("flaky first attempt");
            }
            Ok(x * 2)
        }
        fn figures(&self, _f: Fidelity, values: Values<'_, usize>) -> Vec<FigureData> {
            for (i, v) in values.iter().enumerate() {
                assert_eq!(*v, i * 2);
            }
            Vec::new()
        }
    }

    fn test_store(tag: &str) -> crate::store::ResultStore {
        let dir = std::env::temp_dir().join(format!(
            "ifcampaign-test-{}-{}",
            tag,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        crate::store::ResultStore::open(dir).expect("open test store")
    }

    #[test]
    fn store_roundtrip_restores_points_and_outcome_metadata() {
        let store = test_store("roundtrip");
        let opts = CampaignOptions::serial(Fidelity::Quick);
        // First run computes and persists all 4 points (incl. the
        // recovered one).
        let ctx = StoreCtx { store: &store, resume: true };
        let (runs, _) = run_set_with_store(&[&DurableDoubler], &opts, Some(ctx));
        assert_eq!(runs[0].restored_points, 0);
        assert_eq!(store.stats().persisted, 4);
        // Second run restores every point: no recompute, same statuses.
        let (runs2, _) = run_set_with_store(&[&DurableDoubler], &opts, Some(ctx));
        assert_eq!(runs2[0].restored_points, 4);
        assert_eq!(runs2[0].failed_points, 0);
        // The recovered point's status survives the roundtrip (it would
        // re-panic if actually re-executed with the first-attempt seed,
        // so Recovered proves restoration).
        let outcomes = run_outcomes_with_store(&DurableDoubler, &opts, Some(ctx));
        match &outcomes[1].status {
            RunStatus::Recovered { failed_seed, error } => {
                assert_eq!(*failed_seed, point_seed("durable_doubler", 1));
                assert!(error.contains("flaky"), "{}", error);
            }
            s => panic!("expected restored Recovered, got {:?}", s),
        }
        assert!(outcomes[1].restored);
        assert_eq!(outcomes[1].wall, Duration::ZERO);
    }

    #[test]
    fn corrupt_store_entry_is_recomputed_not_served() {
        let store = test_store("corrupt");
        let opts = CampaignOptions::serial(Fidelity::Quick);
        let ctx = StoreCtx { store: &store, resume: true };
        run_set_with_store(&[&DurableDoubler], &opts, Some(ctx));
        // Flip a bit in one entry's payload region.
        let key = point_key("durable_doubler", Fidelity::Quick, 2);
        crate::store::chaos::corrupt_entry(
            &store,
            &key,
            crate::store::chaos::Fault::BitFlip { offset: 40, bit: 4 },
        );
        let (runs, _) = run_set_with_store(&[&DurableDoubler], &opts, Some(ctx));
        // 3 restored, 1 quarantined + recomputed; nothing failed.
        assert_eq!(runs[0].restored_points, 3);
        assert_eq!(runs[0].failed_points, 0);
        assert_eq!(store.stats().quarantined, 1);
        // The recomputed entry is durable again.
        let (runs2, _) = run_set_with_store(&[&DurableDoubler], &opts, Some(ctx));
        assert_eq!(runs2[0].restored_points, 4);
    }

    #[test]
    fn undurable_experiment_recomputes_on_resume() {
        let store = test_store("undurable");
        let opts = CampaignOptions::serial(Fidelity::Quick);
        let ctx = StoreCtx { store: &store, resume: true };
        let (runs, _) = run_set_with_store(&[&Doubler], &opts, Some(ctx));
        assert_eq!(runs[0].points, 6);
        // Doubler has no codec: nothing persisted, nothing restored.
        assert_eq!(store.stats().persisted, 0);
        let (runs2, _) = run_set_with_store(&[&Doubler], &opts, Some(ctx));
        assert_eq!(runs2[0].restored_points, 0);
        assert_eq!(runs2[0].points, 6);
    }

    #[test]
    fn finalize_panic_is_contained() {
        struct BrokenFinalize;
        impl Sweep for BrokenFinalize {
            const NAME: &'static str = "broken_finalize";
            const ANCHOR: &'static str = "test";
            type Point = ();
            type Value = usize;

            fn sweep(&self, _f: Fidelity) -> Vec<(String, ())> {
                vec![("p".to_string(), ())]
            }
            fn measure(&self, _point: &(), _ctx: &PointCtx<'_>) -> Result<usize, String> {
                Ok(0)
            }
            fn figures(&self, _f: Fidelity, _values: Values<'_, usize>) -> Vec<FigureData> {
                panic!("finalize exploded");
            }
        }
        let opts = CampaignOptions::serial(Fidelity::Quick);
        let runs = run_set(&[&BrokenFinalize, &Doubler], &opts);
        assert_eq!(runs.len(), 2, "the healthy experiment still finalized");
        assert!(runs[0].finalize_error.as_deref().unwrap().contains("exploded"));
        assert!(runs[0].figures.is_empty());
        assert!(runs[0].is_partial());
        assert!(runs[1].finalize_error.is_none());
    }

    #[test]
    fn baseline_cache_computes_once_per_key() {
        let cache = BaselineCache::new();
        let mut calls = 0;
        let a = cache.get_or_compute("k", |seed| {
            calls += 1;
            seed
        });
        let b = cache.get_or_compute("k", |_| unreachable!("memoized"));
        assert_eq!(*a, *b);
        assert_eq!(*a, baseline_seed("k"));
        assert_eq!(calls, 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn baseline_cache_never_memoizes_errors() {
        let cache = BaselineCache::new();
        let r: Result<Arc<u64>, String> =
            cache.get_or_compute_result("k", |_| Err("transient".into()));
        assert_eq!(r.unwrap_err(), "transient");
        // The error was not cached: the next requester computes afresh.
        let v = cache
            .get_or_compute_result("k", Ok)
            .expect("retry succeeds");
        assert_eq!(*v, baseline_seed("k"));
        // …and the success IS memoized.
        let again: Arc<u64> = cache
            .get_or_compute_result("k", |_| Err("must not recompute".into()))
            .expect("memoized");
        assert_eq!(*again, *v);
        assert_eq!(cache.computed(), 2, "one failed + one successful compute");
    }

    #[test]
    fn baseline_cache_recovers_from_a_panicked_compute() {
        let cache = BaselineCache::new();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute::<u64, _>("k", |_| panic!("compute exploded"))
        }));
        assert!(panicked.is_err());
        // The slot reverted to empty: a later requester computes cleanly.
        let v = cache.get_or_compute("k", |seed| seed);
        assert_eq!(*v, baseline_seed("k"));
    }

    /// Sweep points that all share one memoized baseline whose compute
    /// wedges forever — only a deadline stops it.
    struct SharedWedgedBaseline;

    impl Sweep for SharedWedgedBaseline {
        const NAME: &'static str = "shared_wedged_baseline";
        const ANCHOR: &'static str = "test";
        type Point = usize;
        type Value = usize;

        fn sweep(&self, _f: Fidelity) -> Vec<(String, usize)> {
            (0..3).map(|i| (format!("x={}", i), i)).collect()
        }
        fn measure(&self, _point: &usize, ctx: &PointCtx<'_>) -> Result<usize, String> {
            let v: Arc<usize> = ctx
                .baselines
                .get_or_compute_result("wedged-baseline", |_| {
                    let mut e = simcore::Engine::new();
                    e.after(SimTime::PS, 1);
                    e.try_run(|eng, _| {
                        eng.after(SimTime::PS, 1);
                    })
                    .map_err(|err| err.to_string())?;
                    unreachable!("the storm never runs dry");
                })?;
            Ok(*v)
        }
        fn figures(&self, _f: Fidelity, _values: Values<'_, usize>) -> Vec<FigureData> {
            Vec::new()
        }
    }

    #[test]
    fn cancelled_baseline_does_not_poison_later_points() {
        // Every point's own deadline cancels its own baseline attempt: all
        // points classify as TimedOut. Before errors were un-memoized, the
        // first cancellation was served from the cache to every later
        // point, which then (wrongly) recorded Failed — and in a long
        // campaign one transient timeout would poison the whole key.
        let opts = CampaignOptions::serial(Fidelity::Quick)
            .with_timeout(Some(Duration::from_millis(20)));
        let run = run_set_with_store(&[&SharedWedgedBaseline], &opts, None)
            .0
            .pop()
            .unwrap();
        assert_eq!(run.points, 3);
        assert_eq!(run.timed_out_points, 3, "every point timed out on its own");
        assert_eq!(run.failed_points, 0, "no point inherited a cached error");
        assert!(run.is_partial());
    }
}
