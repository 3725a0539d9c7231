//! Random fluid scenarios: a tiny deterministic "topology + traffic script"
//! model replayed directly on [`simcore::FluidNet`].
//!
//! A [`Scenario`] is a list of resource capacities (resource 0 is "the
//! link" — every flow crosses it, which makes conservation accounting
//! exact) plus a time-ordered script of operations. Scripts are generated
//! from a seed, can be transformed (time-shifted, resource-permuted) for
//! metamorphic checks, and replay under either fluid solver for the
//! differential fuzzer. Replays are fully deterministic: same scenario +
//! same solver ⇒ bit-identical outcome.

use std::collections::HashMap;

use simcore::fluid::{self, FluidNet};
use simcore::{Engine, Event, FlowId, FlowSpec, Pcg32, ResourceId, SimPaths, SimTime};

/// One script operation. `Cancel`/`SetFlowCap` refer to the *script index*
/// of the `Start` they target; if that flow already completed (or the index
/// was shrunk away) the operation is a no-op, which keeps scripts valid
/// under shrinking.
#[derive(Clone, Debug)]
pub enum Op {
    /// Start a flow across `path` (resource indices, always containing 0).
    Start {
        /// Resource indices the flow crosses (sorted, deduplicated).
        path: Vec<usize>,
        /// Units to transfer.
        volume: f64,
        /// Max-min weight.
        weight: f64,
        /// Optional rate cap (units/s).
        cap: Option<f64>,
    },
    /// Cancel the flow started by script event `start_ev`.
    Cancel {
        /// Script index of the targeted `Start`.
        start_ev: usize,
    },
    /// Set a resource capacity (capacity 0 models a fault window).
    SetCapacity {
        /// Resource index.
        res: usize,
        /// New capacity (units/s).
        capacity: f64,
    },
    /// Re-cap the flow started by script event `start_ev`.
    SetFlowCap {
        /// Script index of the targeted `Start`.
        start_ev: usize,
        /// New cap, or `None` to uncap.
        cap: Option<f64>,
    },
}

/// A timestamped operation.
#[derive(Clone, Debug)]
pub struct Ev {
    /// Event time in integer picoseconds (ties are allowed and meaningful:
    /// same-instant operations are applied in script order).
    pub t_ps: u64,
    /// The operation.
    pub op: Op,
}

/// Capacities plus script. See module docs.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Per-resource capacities; resource 0 is the common link.
    pub capacities: Vec<f64>,
    /// Time-ordered script (stable order within equal timestamps).
    pub events: Vec<Ev>,
}

/// Generation knobs.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Max number of resources (≥ 2 are always generated).
    pub max_resources: usize,
    /// Max script length.
    pub max_events: usize,
    /// Script horizon in picoseconds.
    pub horizon_ps: u64,
    /// Whether to inject capacity-zero fault windows.
    pub fault_windows: bool,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_resources: 5,
            max_events: 14,
            horizon_ps: 2_000_000, // 2 µs
            fault_windows: true,
        }
    }
}

impl Scenario {
    /// Generate a random scenario. Times are drawn from a coarse grid so
    /// same-instant batches occur often (they exercise the insertion-order
    /// sensitivity the differential fuzzer targets). `Cancel`/`SetFlowCap`
    /// always target a `Start` with a strictly earlier timestamp, so
    /// permuting same-instant `Start`s never changes semantics.
    pub fn generate(seed: u64, cfg: &GenConfig) -> Scenario {
        let mut rng = Pcg32::new(seed, 0x5caf_f01d);
        let n_res = 2 + rng.below(cfg.max_resources.max(2) as u32 - 1) as usize;
        let capacities: Vec<f64> = (0..n_res).map(|_| 1.0 + 99.0 * rng.next_f64()).collect();
        let grid = 16u64;
        let step = cfg.horizon_ps / grid;
        let n_ev = 3 + rng.below(cfg.max_events.max(4) as u32 - 3) as usize;
        // (time, op) in generation order; sorted stably afterwards so ties
        // keep generation order (Starts before the ops that reference them).
        let mut events: Vec<Ev> = Vec::new();
        for _ in 0..n_ev {
            let t_ps = (1 + rng.below(grid as u32 - 1) as u64) * step;
            let starts_before: Vec<usize> = events
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e.op, Op::Start { .. }) && e.t_ps < t_ps)
                .map(|(i, _)| i)
                .collect();
            let roll = rng.next_f64();
            let start_op = |rng: &mut Pcg32| {
                let mut path = vec![0usize];
                for r in 1..n_res {
                    if rng.next_f64() < 0.4 {
                        path.push(r);
                    }
                }
                Op::Start {
                    path,
                    volume: 1.0 + 400.0 * rng.next_f64(),
                    weight: 0.25 + 3.75 * rng.next_f64(),
                    cap: (rng.next_f64() < 0.3).then(|| 0.5 + 20.0 * rng.next_f64()),
                }
            };
            let op = if roll < 0.55 {
                start_op(&mut rng)
            } else if roll < 0.70 {
                if starts_before.is_empty() {
                    start_op(&mut rng)
                } else {
                    Op::Cancel {
                        start_ev: starts_before[rng.below(starts_before.len() as u32) as usize],
                    }
                }
            } else if roll < 0.85 {
                let res = rng.below(n_res as u32) as usize;
                if cfg.fault_windows && rng.next_f64() < 0.35 {
                    // A fault window: capacity to zero now, restored later
                    // (always restored, so every replay drains).
                    let t_end = t_ps + (1 + rng.below(4) as u64) * step;
                    events.push(Ev {
                        t_ps,
                        op: Op::SetCapacity { res, capacity: 0.0 },
                    });
                    events.push(Ev {
                        t_ps: t_end,
                        op: Op::SetCapacity {
                            res,
                            capacity: 1.0 + 99.0 * rng.next_f64(),
                        },
                    });
                    continue;
                }
                Op::SetCapacity {
                    res,
                    capacity: 0.5 + 99.5 * rng.next_f64(),
                }
            } else if starts_before.is_empty() {
                start_op(&mut rng)
            } else {
                Op::SetFlowCap {
                    start_ev: starts_before[rng.below(starts_before.len() as u32) as usize],
                    cap: (rng.next_f64() < 0.7).then(|| 0.5 + 20.0 * rng.next_f64()),
                }
            };
            events.push(Ev { t_ps, op });
        }
        // Stable sort: equal timestamps keep generation order, so targets
        // of Cancel/SetFlowCap stay resolvable by script index after the
        // indices are rewritten to sorted positions.
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by_key(|&i| (events[i].t_ps, i));
        let mut new_index = vec![0usize; events.len()];
        for (new, &old) in order.iter().enumerate() {
            new_index[old] = new;
        }
        let mut sorted: Vec<Ev> = order.iter().map(|&i| events[i].clone()).collect();
        for ev in &mut sorted {
            match &mut ev.op {
                Op::Cancel { start_ev } | Op::SetFlowCap { start_ev, .. } => {
                    *start_ev = new_index[*start_ev];
                }
                _ => {}
            }
        }
        Scenario {
            capacities,
            events: sorted,
        }
    }

    /// Shift every event time by `delta_ps` (time-translation metamorphic
    /// transform).
    pub fn time_shifted(&self, delta_ps: u64) -> Scenario {
        let mut s = self.clone();
        for ev in &mut s.events {
            ev.t_ps += delta_ps;
        }
        s
    }

    /// Relabel resources: `perm[old] = new`. Capacities move with their
    /// resource; paths are remapped (and re-sorted — path order is
    /// semantically irrelevant).
    pub fn resource_permuted(&self, perm: &[usize]) -> Scenario {
        assert_eq!(perm.len(), self.capacities.len());
        let mut capacities = vec![0.0; self.capacities.len()];
        for (old, &new) in perm.iter().enumerate() {
            capacities[new] = self.capacities[old];
        }
        let mut s = Scenario {
            capacities,
            events: self.events.clone(),
        };
        for ev in &mut s.events {
            match &mut ev.op {
                Op::Start { path, .. } => {
                    for r in path.iter_mut() {
                        *r = perm[*r];
                    }
                    path.sort_unstable();
                }
                Op::SetCapacity { res, .. } => *res = perm[*res],
                _ => {}
            }
        }
        s
    }

    /// Render as a compact one-op-per-line script (shrunk-failure reports).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, c) in self.capacities.iter().enumerate() {
            out.push_str(&format!("res r{} cap {:.6}\n", i, c));
        }
        for (i, ev) in self.events.iter().enumerate() {
            let t_ns = ev.t_ps as f64 / 1e3;
            match &ev.op {
                Op::Start {
                    path,
                    volume,
                    weight,
                    cap,
                } => {
                    let p: Vec<String> = path.iter().map(|r| format!("r{}", r)).collect();
                    out.push_str(&format!(
                        "[{}] @{:.3}ns start path=[{}] vol={:.6} w={:.6} cap={}\n",
                        i,
                        t_ns,
                        p.join(","),
                        volume,
                        weight,
                        cap.map_or("none".to_string(), |c| format!("{:.6}", c)),
                    ));
                }
                Op::Cancel { start_ev } => {
                    out.push_str(&format!("[{}] @{:.3}ns cancel [{}]\n", i, t_ns, start_ev));
                }
                Op::SetCapacity { res, capacity } => {
                    out.push_str(&format!(
                        "[{}] @{:.3}ns setcap r{} = {:.6}\n",
                        i, t_ns, res, capacity
                    ));
                }
                Op::SetFlowCap { start_ev, cap } => {
                    out.push_str(&format!(
                        "[{}] @{:.3}ns flowcap [{}] = {}\n",
                        i,
                        t_ns,
                        start_ev,
                        cap.map_or("none".to_string(), |c| format!("{:.6}", c)),
                    ));
                }
            }
        }
        out
    }
}

/// Which fluid solver drives a replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Solver {
    /// The production incremental solver ([`FluidNet::reallocate`]).
    Incremental,
    /// The from-scratch reference solver ([`fluid::reference`]).
    Reference,
}

fn realloc(net: &mut FluidNet, solver: Solver) {
    match solver {
        Solver::Incremental => {
            net.reallocate();
        }
        Solver::Reference => {
            fluid::reference::reallocate(net);
        }
    }
}

/// Everything a replay produces, in deterministic order.
#[derive(Clone, Debug)]
pub struct Replay {
    /// `(start script index, completion time in seconds)` in completion
    /// order.
    pub completions: Vec<(usize, f64)>,
    /// After each distinct script timestamp: the live flows' rates as
    /// `(start script index, rate)`, sorted by script index.
    pub snapshots: Vec<(u64, Vec<(usize, f64)>)>,
    /// Per-resource delivered units (integrated by the solver).
    pub delivered: Vec<f64>,
    /// Per-resource injected units: Σ volume over started flows crossing
    /// the resource.
    pub injected: Vec<f64>,
    /// Per-resource leftover units: remaining volume of cancelled and
    /// still-live flows crossing the resource at the end of the replay.
    pub leftover: Vec<f64>,
    /// True if the replay hit its progress guard (a bug in itself).
    pub stalled: bool,
}

/// Iteration guard: far above anything a generated script can need.
const MAX_STEPS: usize = 100_000;

/// Replay a scenario under a solver. Flows are tagged with their script
/// index, so completions and snapshots are directly comparable across
/// replays of transformed scenarios.
pub fn replay(sc: &Scenario, solver: Solver) -> Replay {
    let mut net = FluidNet::new();
    let rids: Vec<ResourceId> = sc
        .capacities
        .iter()
        .enumerate()
        .map(|(i, &c)| net.add_resource(format!("r{}", i), c))
        .collect();
    let n_res = rids.len();
    let mut rep = Replay {
        completions: Vec::new(),
        snapshots: Vec::new(),
        delivered: vec![0.0; n_res],
        injected: vec![0.0; n_res],
        leftover: vec![0.0; n_res],
        stalled: false,
    };
    // script index → (FlowId, path) for live flows.
    let mut live: HashMap<usize, (FlowId, Vec<usize>)> = HashMap::new();
    let mut now = 0.0f64;
    let mut steps = 0usize;

    let advance = |net: &mut FluidNet,
                   rep: &mut Replay,
                   live: &mut HashMap<usize, (FlowId, Vec<usize>)>,
                   now: &mut f64,
                   steps: &mut usize,
                   target: Option<f64>| {
        loop {
            *steps += 1;
            if *steps > MAX_STEPS {
                rep.stalled = true;
                return;
            }
            realloc(net, solver);
            let gap = target.map(|t| t - *now);
            if let Some(g) = gap {
                if g <= 0.0 {
                    return;
                }
            }
            if target.is_none() && net.active_flows() == 0 {
                return;
            }
            let dt = match (net.time_to_next_completion(), gap) {
                (Some(d), Some(g)) if d <= g => d,
                (Some(d), None) => d,
                (_, Some(g)) => g,
                (None, None) => {
                    // Open-ended drain but every remaining flow has rate 0:
                    // the script left a capacity at zero — a generator bug.
                    rep.stalled = true;
                    return;
                }
            };
            let done = net.elapse(dt);
            *now += dt;
            for r in done {
                let ev = r.tag as usize;
                live.remove(&ev);
                rep.completions.push((ev, *now));
            }
            if let Some(g) = gap {
                if dt >= g {
                    return;
                }
            }
        }
    };

    let mut i = 0usize;
    while i < sc.events.len() {
        let t_ps = sc.events[i].t_ps;
        let t_s = t_ps as f64 * 1e-12;
        advance(&mut net, &mut rep, &mut live, &mut now, &mut steps, Some(t_s));
        now = t_s;
        while i < sc.events.len() && sc.events[i].t_ps == t_ps {
            match &sc.events[i].op {
                Op::Start {
                    path,
                    volume,
                    weight,
                    cap,
                } => {
                    let id = net.start_flow(FlowSpec {
                        path: path.iter().map(|&r| rids[r]).collect(),
                        volume: *volume,
                        weight: *weight,
                        cap: *cap,
                        tag: i as u64,
                    });
                    for &r in path {
                        rep.injected[r] += volume;
                    }
                    live.insert(i, (id, path.clone()));
                }
                Op::Cancel { start_ev } => {
                    if let Some((id, path)) = live.remove(start_ev) {
                        if let Some(r) = net.cancel_flow(id) {
                            for &ri in &path {
                                rep.leftover[ri] += r.remaining;
                            }
                        }
                    }
                }
                Op::SetCapacity { res, capacity } => {
                    net.set_capacity(rids[*res], *capacity);
                }
                Op::SetFlowCap { start_ev, cap } => {
                    if let Some((id, _)) = live.get(start_ev) {
                        net.set_flow_cap(*id, *cap);
                    }
                }
            }
            i += 1;
        }
        realloc(&mut net, solver);
        let mut snap: Vec<(usize, f64)> = live
            .iter()
            .map(|(&ev, &(id, _))| (ev, net.flow_rate(id).expect("live flow")))
            .collect();
        snap.sort_unstable_by_key(|&(ev, _)| ev);
        rep.snapshots.push((t_ps, snap));
    }
    // Drain to quiescence.
    advance(&mut net, &mut rep, &mut live, &mut now, &mut steps, None);
    for (i, &rid) in rids.iter().enumerate() {
        rep.delivered[i] = net.delivered(rid);
    }
    // Whatever is still live after the drain (only possible when stalled)
    // counts as leftover.
    for (tag, remaining, _) in net.flow_snapshots() {
        if let Some((_, path)) = live.get(&(tag as usize)) {
            for &ri in path {
                rep.leftover[ri] += remaining;
            }
        }
    }
    rep
}

/// Which timer queue backs an engine-level replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueKind {
    /// The production hierarchical timing wheel.
    Wheel,
    /// The retained `BinaryHeap` + tombstone reference ([`simcore::queue::HeapQueue`]).
    HeapReference,
}

/// Everything an engine-level replay produces, in delivery order.
///
/// Unlike [`Replay`] (which drives `FluidNet` directly), this goes through
/// a real [`Engine`]: every script op is scheduled as a timer, flow
/// completions arrive as engine events, and extra short-lived "echo" timers
/// are inserted and cancelled along the way to generate tombstone traffic.
/// Two replays differing only in [`QueueKind`] must match **exactly** —
/// the event stream is the simulation.
#[derive(Clone, Debug)]
pub struct EngineReplay {
    /// `(time_ps, kind, tag)` for every delivered event, in delivery order;
    /// kind 0 = timer, 1 = flow completion.
    pub events: Vec<(u64, u8, u64)>,
    /// Per-resource delivered units at quiescence (bit-compared).
    pub delivered: Vec<f64>,
    /// True if the engine wedged (reported as a failure by the fuzzer).
    pub stalled: bool,
}

/// Tag namespaces for engine-replay timers: script ops and echo churn.
/// Flow tags are bare script indices, far below either base.
const TAG_SCRIPT: u64 = 1 << 32;
const TAG_ECHO: u64 = 1 << 33;

/// Replay a scenario through a real [`Engine`] on the chosen timer queue.
///
/// Each script event becomes a timer at its timestamp (same-instant ops
/// fire in insertion order — script order). On every script timer the op is
/// applied and an echo timer is scheduled a pseudo-random (but
/// script-derived, hence deterministic) delay ahead; the previous echo, if
/// still pending, is cancelled first. Echoes both fire and get cancelled
/// across a run, exercising lazy tombstone consumption, slot cascades and
/// staged-region cancellation in the wheel against the heap's eager order.
pub fn replay_engine(sc: &Scenario, kind: QueueKind) -> EngineReplay {
    let paths = SimPaths {
        heap_queue: kind == QueueKind::HeapReference,
        ..SimPaths::current()
    };
    let mut eng = SimPaths::scoped(paths, Engine::new);
    let rids: Vec<ResourceId> = sc
        .capacities
        .iter()
        .enumerate()
        .map(|(i, &c)| eng.add_resource(format!("r{}", i), c))
        .collect();
    for (i, ev) in sc.events.iter().enumerate() {
        eng.at(SimTime(ev.t_ps), TAG_SCRIPT + i as u64);
    }
    let mut rep = EngineReplay {
        events: Vec::new(),
        delivered: Vec::new(),
        stalled: false,
    };
    let mut live: HashMap<usize, FlowId> = HashMap::new();
    let mut last_echo: Option<simcore::TimerId> = None;
    let events = sc.events.clone();
    let result = eng.try_run(|eng, event| {
        match &event {
            Event::Timer { tag } if *tag >= TAG_SCRIPT && *tag < TAG_ECHO => {
                let i = (*tag - TAG_SCRIPT) as usize;
                match &events[i].op {
                    Op::Start {
                        path,
                        volume,
                        weight,
                        cap,
                    } => {
                        let id = eng.start_flow(FlowSpec {
                            path: path.iter().map(|&r| rids[r]).collect(),
                            volume: *volume,
                            weight: *weight,
                            cap: *cap,
                            tag: i as u64,
                        });
                        live.insert(i, id);
                    }
                    Op::Cancel { start_ev } => {
                        if let Some(id) = live.remove(start_ev) {
                            eng.cancel_flow(id);
                        }
                    }
                    Op::SetCapacity { res, capacity } => {
                        eng.set_capacity(rids[*res], *capacity);
                    }
                    Op::SetFlowCap { start_ev, cap } => {
                        if let Some(id) = live.get(start_ev) {
                            eng.set_flow_cap(*id, *cap);
                        }
                    }
                }
                // Echo churn: cancel the previous echo (a tombstone if it
                // has not fired — cancel_timer is a no-op on consumed ids),
                // then schedule a fresh one at a script-derived offset.
                if let Some(id) = last_echo.take() {
                    eng.cancel_timer(id);
                }
                let delay = 1 + (i as u64).wrapping_mul(0x9e37_79b9) % 200_000;
                last_echo = Some(eng.after(SimTime(delay), TAG_ECHO + i as u64));
            }
            Event::Timer { .. } => {} // an echo survived to fire
            Event::Flow { tag, .. } => {
                live.remove(&(*tag as usize));
            }
        }
        rep.events.push((
            eng.now().0,
            matches!(event, Event::Flow { .. }) as u8,
            event.tag(),
        ));
    });
    rep.stalled = result.is_err();
    rep.delivered = rids.iter().map(|&r| eng.delivered(r)).collect();
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_replay_cleanly() {
        for seed in 0..40u64 {
            let sc = Scenario::generate(seed, &GenConfig::default());
            let r = replay(&sc, Solver::Incremental);
            assert!(!r.stalled, "seed {} stalled:\n{}", seed, sc.render());
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let sc = Scenario::generate(7, &GenConfig::default());
        let a = replay(&sc, Solver::Incremental);
        let b = replay(&sc, Solver::Incremental);
        assert_eq!(a.completions.len(), b.completions.len());
        for (x, y) in a.completions.iter().zip(&b.completions) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    #[test]
    fn render_mentions_every_event() {
        let sc = Scenario::generate(3, &GenConfig::default());
        let text = sc.render();
        assert_eq!(
            text.lines().count(),
            sc.capacities.len() + sc.events.len(),
            "{}",
            text
        );
    }
}
