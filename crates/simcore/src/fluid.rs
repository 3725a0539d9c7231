//! Weighted max-min fair fluid bandwidth allocation.
//!
//! The memory system, NUMA interconnect, NIC and network wire are modelled as
//! *resources* with finite capacities (units/s). Ongoing transfers are
//! *flows*: each flow crosses a path of resources, carries a fairness weight
//! and an optional rate cap (e.g. the roofline compute bound of the thread
//! issuing the accesses). At any instant the rates are the **weighted
//! max-min fair** allocation, computed by progressive filling:
//!
//! 1. All unfrozen flows grow their rate proportionally to their weight
//!    (rate = weight × fill level `λ`).
//! 2. The first event is either a resource saturating (freeze every unfrozen
//!    flow crossing it) or a flow hitting its cap (freeze that flow).
//! 3. Repeat until every flow is frozen.
//!
//! This is the standard analytical model of bandwidth sharing (used e.g. by
//! flow-level network simulators and by Langguth et al.'s memory-contention
//! model cited in the paper) and reproduces the saturation and fair-share
//! curves measured by the paper's STREAM/ping-pong experiments.
//!
//! # Incremental re-solving
//!
//! Max-min allocation decomposes over the connected components of the
//! flow↔resource bipartite graph: a flow's rate depends only on flows it
//! (transitively) shares a resource with. The net therefore keeps
//!
//! * a slab of flows addressed by [`FlowId`] (O(1) lookup/cancel),
//! * a persistent inverse index (`members[r]` = flows crossing `r`, in id
//!   order), and
//! * per-resource dirty bits set by every mutation (flow started, cancelled
//!   or completed, cap changed, capacity changed).
//!
//! [`FluidNet::reallocate`] walks each dirty component once (BFS over the
//! inverse index) and re-solves *only those components*; clean components
//! keep their cached rates. A ping-pong on the NIC no longer re-solves the
//! memory-controller component of an idle node, and vice versa.
//!
//! The per-component solve ([`solve_region`]) is the single canonical
//! implementation of progressive filling: the from-scratch
//! [`reference::reallocate`] rebuilds the adjacency and the component
//! decomposition independently and calls the *same* routine, so fast and
//! reference results are bit-identical by construction (verified over
//! randomized mutation sequences by the `prop_fluid_equiv` suite). Exact
//! f64 equality matters: completion times derive from rates, so even a
//! 1-ulp drift would eventually flip picosecond event ordering and break
//! golden-trace and `--json` byte-stability.

use std::collections::HashMap;
use std::fmt;

use crate::paths::SimPaths;
use crate::telemetry;

/// Identifies a resource inside a [`FluidNet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// Dense index of the resource (stable for the net's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a flow inside a [`FluidNet`]. Ids are never reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowId(pub(crate) u64);

#[derive(Clone, Debug)]
pub(crate) struct Resource {
    pub name: String,
    /// Capacity in units/s (typically bytes/s or cycles/s).
    pub capacity: f64,
    /// Cumulative units delivered through this resource.
    pub delivered: f64,
    /// Integral of utilization over time (seconds of 100 % use); divide by
    /// elapsed time for mean utilization.
    pub busy_integral: f64,
    /// Current total allocated rate (refreshed on every reallocation).
    pub allocated: f64,
}

/// Parameters for starting a flow.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Resources crossed, in order. May be empty only for pure-delay flows,
    /// which is disallowed — use timers for pure delays.
    pub path: Vec<ResourceId>,
    /// Total units to transfer.
    pub volume: f64,
    /// Fairness weight (1.0 = one CPU core's worth of demand).
    pub weight: f64,
    /// Optional rate cap in units/s (roofline compute bound, PIO copy rate…).
    pub cap: Option<f64>,
    /// Opaque tag returned on completion.
    pub tag: u64,
}

/// Structure-of-arrays flow slab: every per-flow field lives in its own
/// contiguous vector, all indexed by slot number. The solver's inner loops
/// (weight re-sums, cap scans, rate write-back) and `elapse`'s per-flow
/// update walk flat `f64` arrays instead of chasing per-flow allocations.
/// Freed slots are reused via `FluidNet::free`; `id[slot] == FREE_SLOT`
/// marks a free slot (ids themselves are never reused).
#[derive(Default)]
pub(crate) struct FlowArena {
    /// FlowId.0 of the slot's occupant, or [`FREE_SLOT`].
    pub id: Vec<u64>,
    /// Resources crossed, in path order (may contain duplicates).
    pub path: Vec<Vec<ResourceId>>,
    pub remaining: Vec<f64>,
    pub weight: Vec<f64>,
    pub cap: Vec<Option<f64>>,
    pub rate: Vec<f64>,
    pub tag: Vec<u64>,
    /// Seconds spent rate-limited below the cap (memory-stall accounting).
    pub stalled: Vec<f64>,
    /// Seconds since the flow started.
    pub elapsed: Vec<f64>,
}

/// `FlowArena::id` value marking a free slot.
pub(crate) const FREE_SLOT: u64 = u64::MAX;

impl FlowArena {
    /// Number of slots (live + free). Only the scratch-rebuild reference
    /// solver needs this; the incremental path tracks live slots via `order`.
    fn len(&self) -> usize {
        self.id.len()
    }

    /// Append one free slot, returning its number.
    fn push_free(&mut self) -> u32 {
        self.id.push(FREE_SLOT);
        self.path.push(Vec::new());
        self.remaining.push(0.0);
        self.weight.push(0.0);
        self.cap.push(None);
        self.rate.push(0.0);
        self.tag.push(0);
        self.stalled.push(0.0);
        self.elapsed.push(0.0);
        (self.id.len() - 1) as u32
    }
}

/// Work done by one [`FluidNet::reallocate`] call: how many dirty connected
/// components were re-solved and how many flows they contained. Feeds the
/// `fluid.components` / `fluid.realloc_flows_visited` telemetry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReallocStats {
    /// Connected components re-solved.
    pub components: u64,
    /// Total flows across the re-solved components.
    pub flows_visited: u64,
    /// Components solved by the single-flow waterfill fast path (exact-bits
    /// shortcut of the progressive fill). Feeds the `fluid.waterfill`
    /// counter.
    pub waterfill: u64,
}

/// The set of resources and active flows, with max-min allocation.
#[derive(Default)]
pub struct FluidNet {
    /// When set, [`FluidNet::reallocate`] delegates to
    /// [`reference::reallocate`] ([`SimPaths::reference_solver`], fixed at
    /// construction).
    reference: bool,
    resources: Vec<Resource>,
    /// Flow slab in structure-of-arrays layout; freed slots are reused via
    /// `free`. Slot numbers are meaningless outside this struct — flows are
    /// addressed by [`FlowId`].
    arena: FlowArena,
    free: Vec<u32>,
    /// FlowId.0 → slot.
    index: HashMap<u64, u32>,
    /// Live slots in ascending [`FlowId`] order (deterministic iteration).
    order: Vec<u32>,
    /// Inverse index: `members[r]` = slots of flows whose path crosses `r`,
    /// each listed once, in ascending [`FlowId`] order.
    members: Vec<Vec<u32>>,
    /// Per-resource dirty bit + list of dirty resources (realloc seeds).
    res_dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// Epoch-stamped visit marks for the component BFS (no per-call zeroing).
    res_mark: Vec<u64>,
    slot_mark: Vec<u64>,
    epoch: u64,
    /// Scratch for the component being re-solved, reused across
    /// components and passes: its resources (ascending, after discovery)
    /// and its flow slots (ascending [`FlowId`]).
    comp_res: Vec<u32>,
    comp_slots: Vec<u32>,
    next_flow: u64,
    dirty: bool,
}

/// Snapshot of a finished or cancelled flow.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// The tag the flow was started with.
    pub tag: u64,
    /// Wall-clock seconds the flow was active.
    pub elapsed: f64,
    /// Seconds the flow spent below its cap (0 if it had no cap).
    pub stalled: f64,
    /// Units left (0 for completed flows).
    pub remaining: f64,
}

/// Set `r`'s dirty bit and queue it as a realloc seed (free function so it
/// can run under field-level borrows of the flow slab).
fn mark_res(res_dirty: &mut [bool], dirty_list: &mut Vec<u32>, r: ResourceId) {
    let ri = r.index();
    if !res_dirty[ri] {
        res_dirty[ri] = true;
        dirty_list.push(r.0);
    }
}

impl FluidNet {
    /// Create an empty network on the solver this thread's [`SimPaths`]
    /// selects. (`FluidNet::default()` is always the incremental solver.)
    pub fn new() -> Self {
        let paths = SimPaths::current();
        if paths.reference_solver {
            telemetry::counter_add("paths.reference_solver", 1);
        }
        FluidNet {
            reference: paths.reference_solver,
            ..FluidNet::default()
        }
    }

    /// Add a resource with the given capacity (units/s).
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        assert!(capacity >= 0.0 && capacity.is_finite(), "bad capacity");
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(Resource {
            name: name.into(),
            capacity,
            delivered: 0.0,
            busy_integral: 0.0,
            allocated: 0.0,
        });
        self.members.push(Vec::new());
        self.res_dirty.push(false);
        self.res_mark.push(0);
        id
    }

    /// Name a resource was registered with.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.resources[r.index()].name
    }

    /// Current capacity of a resource.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.resources[r.index()].capacity
    }

    /// Change a resource's capacity (frequency scaling). Marks allocation dirty.
    pub fn set_capacity(&mut self, r: ResourceId, capacity: f64) {
        assert!(capacity >= 0.0 && capacity.is_finite(), "bad capacity");
        let res = &mut self.resources[r.index()];
        if res.capacity != capacity {
            res.capacity = capacity;
            mark_res(&mut self.res_dirty, &mut self.dirty_list, r);
            self.dirty = true;
        }
    }

    /// Current total allocated rate on a resource (after the last realloc).
    pub fn allocated(&self, r: ResourceId) -> f64 {
        self.resources[r.index()].allocated
    }

    /// Utilization in [0,1] given current allocation.
    pub fn utilization(&self, r: ResourceId) -> f64 {
        let res = &self.resources[r.index()];
        if res.capacity <= 0.0 {
            if res.allocated > 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            (res.allocated / res.capacity).min(1.0)
        }
    }

    /// *Demand-side* pressure on a resource: sum of what flows crossing it
    /// would consume if unconstrained (their cap, or weight-proportional
    /// elastic demand approximated by capacity). Used by the congestion
    /// latency model, where queueing grows with offered load, not with
    /// (saturated) throughput.
    pub fn demand(&self, r: ResourceId) -> f64 {
        let cap_r = self.resources[r.index()].capacity;
        self.members[r.index()]
            .iter()
            .map(|&s| self.arena.cap[s as usize].unwrap_or(cap_r))
            .sum()
    }

    /// Cumulative units delivered through a resource.
    pub fn delivered(&self, r: ResourceId) -> f64 {
        self.resources[r.index()].delivered
    }

    /// Integral of utilization (seconds at 100 %).
    pub fn busy_integral(&self, r: ResourceId) -> f64 {
        self.resources[r.index()].busy_integral
    }

    /// Start a flow; the allocation is recomputed lazily.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(!spec.path.is_empty(), "flow must cross at least one resource");
        assert!(spec.volume > 0.0 && spec.volume.is_finite(), "bad volume");
        assert!(spec.weight > 0.0 && spec.weight.is_finite(), "bad weight");
        if let Some(c) = spec.cap {
            assert!(c > 0.0 && c.is_finite(), "bad cap");
        }
        for &r in &spec.path {
            assert!(r.index() < self.resources.len(), "unknown resource");
        }
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slot_mark.push(0);
                self.arena.push_free()
            }
        };
        for &r in &spec.path {
            mark_res(&mut self.res_dirty, &mut self.dirty_list, r);
            let m = &mut self.members[r.index()];
            // A path may cross a resource twice; index it once. The flow
            // being added always sits at the tail (ids are monotone).
            if m.last() != Some(&slot) {
                m.push(slot);
            }
        }
        let si = slot as usize;
        self.arena.id[si] = id.0;
        // Reuse the slot's previous path buffer instead of replacing it.
        let dst = &mut self.arena.path[si];
        dst.clear();
        dst.extend_from_slice(&spec.path);
        self.arena.remaining[si] = spec.volume;
        self.arena.weight[si] = spec.weight;
        self.arena.cap[si] = spec.cap;
        self.arena.rate[si] = 0.0;
        self.arena.tag[si] = spec.tag;
        self.arena.stalled[si] = 0.0;
        self.arena.elapsed[si] = 0.0;
        self.order.push(slot);
        self.index.insert(id.0, slot);
        self.dirty = true;
        id
    }

    /// Change a flow's rate cap (frequency changed mid-phase).
    pub fn set_flow_cap(&mut self, id: FlowId, cap: Option<f64>) {
        let Some(&slot) = self.index.get(&id.0) else {
            return;
        };
        let si = slot as usize;
        if self.arena.cap[si] != cap {
            self.arena.cap[si] = cap;
            for &r in &self.arena.path[si] {
                mark_res(&mut self.res_dirty, &mut self.dirty_list, r);
            }
            self.dirty = true;
        }
    }

    /// Unlink `slot` from the index, inverse index and iteration order,
    /// marking its path dirty. The slot must be live. Returns the flow's
    /// report with its actual remaining volume (completions overwrite it
    /// with 0). The slot's path buffer is kept for reuse.
    fn detach_slot(&mut self, slot: u32) -> FlowReport {
        let si = slot as usize;
        let path = std::mem::take(&mut self.arena.path[si]);
        let id = self.arena.id[si];
        for &r in &path {
            mark_res(&mut self.res_dirty, &mut self.dirty_list, r);
            let ids = &self.arena.id;
            let m = &mut self.members[r.index()];
            // Duplicate path entries: only the first occurrence still finds it.
            if let Ok(p) = m.binary_search_by_key(&id, |&s| ids[s as usize]) {
                m.remove(p);
            }
        }
        let ids = &self.arena.id;
        let p = self
            .order
            .binary_search_by_key(&id, |&s| ids[s as usize])
            .expect("live flow in order");
        self.order.remove(p);
        self.arena.path[si] = path;
        self.arena.id[si] = FREE_SLOT;
        self.index.remove(&id);
        self.free.push(slot);
        self.dirty = true;
        FlowReport {
            tag: self.arena.tag[si],
            elapsed: self.arena.elapsed[si],
            stalled: self.arena.stalled[si],
            remaining: self.arena.remaining[si],
        }
    }

    /// Remove a flow before completion; returns its report if it existed.
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<FlowReport> {
        let slot = *self.index.get(&id.0)?;
        Some(self.detach_slot(slot))
    }

    /// Rate of a flow under the current allocation.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        let slot = *self.index.get(&id.0)?;
        Some(self.arena.rate[slot as usize])
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.order.len()
    }

    /// True if the allocation must be recomputed before use.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Recompute the weighted max-min fair allocation (progressive filling).
    ///
    /// Incremental: only connected components containing a dirty resource
    /// are re-solved; everything else keeps its cached rates. The result is
    /// bit-identical to the from-scratch [`reference::reallocate`].
    pub fn reallocate(&mut self) -> ReallocStats {
        if self.reference {
            return reference::reallocate(self);
        }
        self.dirty = false;
        let mut stats = ReallocStats::default();
        if self.dirty_list.is_empty() {
            return stats;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        let mut seeds = std::mem::take(&mut self.dirty_list);
        // Discover, solve and apply each dirty component in seed order.
        // Components are disjoint, so solving one never changes what a
        // later seed discovers. `comp_res` doubles as the BFS worklist.
        for &seed in &seeds {
            self.res_dirty[seed as usize] = false;
            if self.res_mark[seed as usize] == epoch {
                continue; // already gathered as part of an earlier seed's component
            }
            self.comp_res.clear();
            self.comp_slots.clear();
            self.res_mark[seed as usize] = epoch;
            self.comp_res.push(seed);
            let mut next = 0;
            while next < self.comp_res.len() {
                let r = self.comp_res[next];
                next += 1;
                for &s in &self.members[r as usize] {
                    if self.slot_mark[s as usize] == epoch {
                        continue;
                    }
                    self.slot_mark[s as usize] = epoch;
                    self.comp_slots.push(s);
                    for &pr in &self.arena.path[s as usize] {
                        if self.res_mark[pr.index()] != epoch {
                            self.res_mark[pr.index()] = epoch;
                            self.comp_res.push(pr.0);
                        }
                    }
                }
            }
            if self.comp_slots.is_empty() {
                // Dirty resource with no flows left: just clear its allocation.
                self.resources[seed as usize].allocated = 0.0;
                continue;
            }
            // Canonical order (BFS discovery order is traversal-dependent).
            self.comp_res.sort_unstable();
            let ids = &self.arena.id;
            self.comp_slots.sort_unstable_by_key(|&s| ids[s as usize]);
            stats.components += 1;
            stats.flows_visited += self.comp_slots.len() as u64;
            let sol = solve_region(
                &self.resources,
                &self.arena,
                &self.comp_res,
                &self.comp_slots,
            );
            stats.waterfill += u64::from(sol.waterfill);
            apply_region(
                &mut self.resources,
                &mut self.arena,
                &self.comp_res,
                &self.comp_slots,
                &sol,
            );
        }
        // Hand the seed buffer back so the next pass reuses its capacity.
        seeds.clear();
        self.dirty_list = seeds;
        stats
    }

    /// Advance all flows by `dt` seconds at their current rates, returning
    /// reports for completed flows (in deterministic id order).
    ///
    /// The caller must ensure `dt` does not overshoot any completion (the
    /// engine picks `dt` = time to the earliest event).
    pub fn elapse(&mut self, dt: f64) -> Vec<FlowReport> {
        debug_assert!(dt >= 0.0);
        if dt > 0.0 {
            for res in &mut self.resources {
                res.delivered += res.allocated * dt;
                if res.capacity > 0.0 {
                    res.busy_integral += (res.allocated / res.capacity).min(1.0) * dt;
                } else if res.allocated > 0.0 {
                    res.busy_integral += dt;
                }
            }
        }
        let mut finished: Vec<u32> = Vec::new();
        let a = &mut self.arena;
        for &s in &self.order {
            let si = s as usize;
            a.elapsed[si] += dt;
            let rate = a.rate[si];
            if let Some(c) = a.cap[si] {
                if rate < c * (1.0 - 1e-9) {
                    a.stalled[si] += dt * (1.0 - rate / c).clamp(0.0, 1.0);
                }
            }
            a.remaining[si] -= rate * dt;
            // Tolerate float fuzz: treat within 1e-6 units as done.
            if a.remaining[si] <= 1e-6 {
                finished.push(s);
            }
        }
        let mut done = Vec::with_capacity(finished.len());
        for &s in &finished {
            let mut rep = self.detach_slot(s);
            rep.remaining = 0.0;
            done.push(rep);
        }
        done
    }

    /// Snapshot of every active flow as `(tag, remaining, rate)`, in id
    /// order. Used by the engine's stall diagnostics.
    pub fn flow_snapshots(&self) -> Vec<(u64, f64, f64)> {
        self.order
            .iter()
            .map(|&s| {
                let si = s as usize;
                (self.arena.tag[si], self.arena.remaining[si], self.arena.rate[si])
            })
            .collect()
    }

    /// Seconds until the earliest flow completion at current rates.
    pub fn time_to_next_completion(&self) -> Option<f64> {
        self.order
            .iter()
            .map(|&s| s as usize)
            .filter(|&si| self.arena.rate[si] > 0.0)
            .map(|si| self.arena.remaining[si] / self.arena.rate[si])
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
    }
}

/// A solved component, local to its `comp_res`/`comp_slots` ordering:
/// `rate[i]` for the i-th component slot, `alloc[lr]` for the lr-th
/// component resource. Produced by [`solve_region`] (pure) and written back
/// by [`apply_region`], a split that both the incremental and the reference
/// solver share.
struct RegionSolution {
    rate: Vec<f64>,
    alloc: Vec<f64>,
    /// Taken by the single-flow waterfill fast path.
    waterfill: bool,
}

/// Waterfill fast path for a one-flow component: the progressive fill
/// collapses to its first round — the flow runs at `weight × min over its
/// resources of capacity / weight`, or at its cap if that binds first.
///
/// Every expression below is copied verbatim from the corresponding
/// general-loop round (same `max(0.0)` clamps, same `- level` with `level
/// = 0.0`, same strict-`<` first-min scan in ascending resource order), so
/// the returned rate is exact-bits identical to what [`solve_region`]'s
/// loop would produce — the property tests compare the two bitwise.
fn solve_singleton(
    resources: &[Resource],
    arena: &FlowArena,
    comp_res: &[u32],
    comp_slots: &[u32],
) -> RegionSolution {
    let si = comp_slots[0] as usize;
    let w0 = arena.weight[si];
    // A closed one-flow component lists exactly the flow's resources, each
    // with unfrozen weight w0 (> 0: `start_flow` asserts it).
    let mut best_dlevel = f64::INFINITY;
    for &r in comp_res {
        let dlevel = resources[r as usize].capacity.max(0.0) / w0;
        if dlevel < best_dlevel {
            best_dlevel = dlevel;
        }
    }
    let cap_dlevel = match arena.cap[si] {
        Some(c) => (c / w0 - 0.0).max(0.0),
        None => f64::INFINITY,
    };
    let rate0 = if best_dlevel == f64::INFINITY && cap_dlevel == f64::INFINITY {
        w0 * 0.0
    } else if cap_dlevel < best_dlevel {
        arena.cap[si].expect("capped")
    } else {
        w0 * (0.0 + best_dlevel)
    };
    let mut alloc = vec![0.0f64; comp_res.len()];
    for &r in &arena.path[si] {
        let lr = comp_res.binary_search(&r.0).expect("closed component");
        alloc[lr] += rate0;
    }
    RegionSolution {
        rate: vec![rate0],
        alloc,
        waterfill: true,
    }
}

/// Progressive filling of one connected component: returns its rates and
/// per-resource allocations without touching shared state.
///
/// `comp_res` must be sorted ascending, `comp_slots` sorted by ascending
/// [`FlowId`], and together they must form a closed component: every
/// resource crossed by a listed flow is listed, and every flow crossing a
/// listed resource is listed. This routine is the *only* implementation of
/// the fill algorithm — the incremental and reference solvers both call it,
/// which is what makes their results bit-identical by construction.
fn solve_region(
    resources: &[Resource],
    arena: &FlowArena,
    comp_res: &[u32],
    comp_slots: &[u32],
) -> RegionSolution {
    if comp_slots.len() == 1 {
        return solve_singleton(resources, arena, comp_res, comp_slots);
    }
    solve_general(resources, arena, comp_res, comp_slots)
}

/// The full progressive-filling loop. Callers go through [`solve_region`];
/// only the waterfill parity test calls this directly on one-flow
/// components to prove the fast path bit-identical.
fn solve_general(
    resources: &[Resource],
    arena: &FlowArena,
    comp_res: &[u32],
    comp_slots: &[u32],
) -> RegionSolution {
    let nf = comp_slots.len();
    let nr = comp_res.len();
    debug_assert!(nf > 0 && nr > 0);

    // Component-local copies of the per-flow parameters, plus the local
    // adjacency in both directions. `lmembers[lr]` lists local flow indices
    // crossing local resource `lr` (ascending id, once per flow);
    // `fpath[i]` lists local resources flow `i` crosses (once each).
    let mut weight = vec![0.0f64; nf];
    let mut cap: Vec<Option<f64>> = vec![None; nf];
    let mut lmembers: Vec<Vec<u32>> = vec![Vec::new(); nr];
    let mut fpath: Vec<Vec<u32>> = vec![Vec::new(); nf];
    for (i, &s) in comp_slots.iter().enumerate() {
        let si = s as usize;
        weight[i] = arena.weight[si];
        cap[i] = arena.cap[si];
        for &r in &arena.path[si] {
            let lr = comp_res.binary_search(&r.0).expect("closed component") as u32;
            let lm = &mut lmembers[lr as usize];
            if lm.last() != Some(&(i as u32)) {
                lm.push(i as u32);
            } else {
                continue; // duplicate path entry, already indexed
            }
            fpath[i].push(lr);
        }
    }

    // Unfrozen weight sum per resource. Kept current across rounds by
    // *re-summing in id order* the resources touched by each freeze — not by
    // subtracting the frozen weight — so every round sees exactly the bits a
    // from-scratch summation would produce (f64 addition is not associative;
    // `(a+b+c)-a != b+c`). See DESIGN.md §10.
    let resum = |lm: &[u32], frozen: &[bool]| -> f64 {
        lm.iter().filter(|&&i| !frozen[i as usize]).map(|&i| weight[i as usize]).sum()
    };

    let mut frozen = vec![false; nf];
    let mut rate = vec![0.0f64; nf];
    let mut headroom: Vec<f64> =
        comp_res.iter().map(|&r| resources[r as usize].capacity).collect();
    let mut w: Vec<f64> = lmembers.iter().map(|lm| resum(lm, &frozen)).collect();
    let mut unfrozen = nf;
    let mut level = 0.0f64;
    let mut newly_frozen: Vec<usize> = Vec::new();

    // Active scan lists, compacted as the fill proceeds: a resource whose
    // unfrozen weight reached 0.0 can never become a candidate again
    // (weights are strictly positive and only leave `w` by freezing), nor
    // can a frozen flow. Retention is stable, so the surviving candidates
    // are visited in the same ascending order as the full `0..nr` / `0..nf`
    // scans — same first-strict-min tie-breaks, same arithmetic, skipping
    // only iterations the full scans would `continue` past. Dropping a
    // zero-weight resource from the headroom update is equally exact:
    // `headroom -= 0.0 * dl` is a no-op for every finite `dl`.
    let mut active_res: Vec<u32> = (0..nr as u32).collect();
    let mut active_cap_flows: Vec<u32> =
        (0..nf as u32).filter(|&i| cap[i as usize].is_some()).collect();

    while unfrozen > 0 {
        active_res.retain(|&lr| w[lr as usize] > 0.0);
        active_cap_flows.retain(|&i| !frozen[i as usize]);
        // For each resource, the level increment at which it saturates.
        let mut best_dlevel = f64::INFINITY;
        let mut bottleneck: Option<usize> = None;
        for &lr in &active_res {
            let lr = lr as usize;
            let dlevel = (headroom[lr].max(0.0)) / w[lr];
            if dlevel < best_dlevel {
                best_dlevel = dlevel;
                bottleneck = Some(lr);
            }
        }
        // Flow caps: flow i freezes when level reaches cap/weight.
        let mut cap_dlevel = f64::INFINITY;
        let mut cap_flow: Option<usize> = None;
        for &i in &active_cap_flows {
            let i = i as usize;
            if let Some(c) = cap[i] {
                let dl = (c / weight[i] - level).max(0.0);
                if dl < cap_dlevel {
                    cap_dlevel = dl;
                    cap_flow = Some(i);
                }
            }
        }

        if best_dlevel == f64::INFINITY && cap_dlevel == f64::INFINITY {
            // No constraint at all (can't happen: every flow crosses a
            // finite-capacity resource) — freeze everything at current level.
            for i in 0..nf {
                if !frozen[i] {
                    frozen[i] = true;
                    rate[i] = weight[i] * level;
                }
            }
            break;
        }

        if cap_dlevel < best_dlevel {
            // A flow reaches its cap first.
            let dl = cap_dlevel;
            level += dl;
            for &lr in &active_res {
                let lr = lr as usize;
                headroom[lr] -= w[lr] * dl;
            }
            let i = cap_flow.expect("cap flow set");
            frozen[i] = true;
            rate[i] = cap[i].expect("capped");
            unfrozen -= 1;
            for &lr in &fpath[i] {
                w[lr as usize] = resum(&lmembers[lr as usize], &frozen);
            }
        } else {
            // A resource saturates.
            let dl = best_dlevel;
            level += dl;
            for &lr in &active_res {
                let lr = lr as usize;
                headroom[lr] -= w[lr] * dl;
            }
            let rb = bottleneck.expect("bottleneck set");
            newly_frozen.clear();
            for &li in &lmembers[rb] {
                let i = li as usize;
                if !frozen[i] {
                    frozen[i] = true;
                    rate[i] = weight[i] * level;
                    unfrozen -= 1;
                    newly_frozen.push(i);
                }
            }
            // Refresh the weight sums of every resource a newly frozen flow
            // crosses (re-sums are idempotent, duplicates are harmless).
            for &i in &newly_frozen {
                for &lr in &fpath[i] {
                    w[lr as usize] = resum(&lmembers[lr as usize], &frozen);
                }
            }
        }
    }

    // Per-occurrence allocation sums on the component's resources (a path
    // crossing a resource twice counts twice), accumulated from 0.0 in the
    // exact (flow, path-occurrence) order the serial write-back always used
    // — f64 addition is order-sensitive, so this order is the contract.
    let mut alloc = vec![0.0f64; nr];
    for (i, &s) in comp_slots.iter().enumerate() {
        for &r in &arena.path[s as usize] {
            let lr = comp_res.binary_search(&r.0).expect("closed component");
            alloc[lr] += rate[i];
        }
    }
    RegionSolution {
        rate,
        alloc,
        waterfill: false,
    }
}

/// Write a solved component back: rates on the flows, allocation totals on
/// the component's resources.
fn apply_region(
    resources: &mut [Resource],
    arena: &mut FlowArena,
    comp_res: &[u32],
    comp_slots: &[u32],
    sol: &RegionSolution,
) {
    for (lr, &r) in comp_res.iter().enumerate() {
        resources[r as usize].allocated = sol.alloc[lr];
    }
    for (i, &s) in comp_slots.iter().enumerate() {
        arena.rate[s as usize] = sol.rate[i];
    }
}

/// From-scratch solver retained as the equivalence oracle for the
/// incremental [`FluidNet::reallocate`].
///
/// It ignores all of the net's cached bookkeeping — inverse index, dirty
/// bits, component marks — and rebuilds the flow↔resource adjacency and the
/// component decomposition from the flow paths alone, then runs the same
/// [`solve_region`] per component. Any bug in the incremental maintenance
/// (a stale member list, a missed dirty bit, a component split too early)
/// shows up as a bitwise rate mismatch in the `prop_fluid_equiv` suite.
pub mod reference {
    use super::*;

    /// Re-solve the whole net from scratch. Clears all dirty state.
    pub fn reallocate(net: &mut FluidNet) -> ReallocStats {
        net.dirty = false;
        for d in &mut net.res_dirty {
            *d = false;
        }
        net.dirty_list.clear();
        for r in &mut net.resources {
            r.allocated = 0.0;
        }
        let n = net.resources.len();
        // Live slots in ascending id order, independent of `net.order`.
        // (Hash-iteration order is immediately canonicalized by the sort —
        // determinism policy, DESIGN.md §13.)
        let mut live: Vec<u32> = net.index.values().copied().collect();
        live.sort_unstable_by_key(|&s| net.arena.id[s as usize]);
        // Adjacency rebuilt from paths alone.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &s in &live {
            for &r in &net.arena.path[s as usize] {
                let m = &mut members[r.index()];
                if m.last() != Some(&s) {
                    m.push(s);
                }
            }
        }
        let mut res_seen = vec![false; n];
        let mut slot_seen = vec![false; net.arena.len()];
        let mut stats = ReallocStats::default();
        let mut comp_res: Vec<u32> = Vec::new();
        let mut comp_slots: Vec<u32> = Vec::new();
        let mut queue: Vec<u32> = Vec::new();
        for seed in 0..n {
            if res_seen[seed] || members[seed].is_empty() {
                continue;
            }
            comp_res.clear();
            comp_slots.clear();
            queue.clear();
            res_seen[seed] = true;
            queue.push(seed as u32);
            while let Some(r) = queue.pop() {
                comp_res.push(r);
                for &s in &members[r as usize] {
                    if slot_seen[s as usize] {
                        continue;
                    }
                    slot_seen[s as usize] = true;
                    comp_slots.push(s);
                    for &pr in &net.arena.path[s as usize] {
                        if !res_seen[pr.index()] {
                            res_seen[pr.index()] = true;
                            queue.push(pr.0);
                        }
                    }
                }
            }
            comp_res.sort_unstable();
            let ids = &net.arena.id;
            comp_slots.sort_unstable_by_key(|&s| ids[s as usize]);
            stats.components += 1;
            stats.flows_visited += comp_slots.len() as u64;
            let sol = solve_region(&net.resources, &net.arena, &comp_res, &comp_slots);
            stats.waterfill += u64::from(sol.waterfill);
            apply_region(&mut net.resources, &mut net.arena, &comp_res, &comp_slots, &sol);
        }
        stats
    }
}

impl fmt::Debug for FluidNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FluidNet ({} resources, {} flows)", self.resources.len(), self.order.len())?;
        for (i, r) in self.resources.iter().enumerate() {
            writeln!(
                f,
                "  R{} {}: cap {:.3e} alloc {:.3e}",
                i, r.name, r.capacity, r.allocated
            )?;
        }
        for &s in &self.order {
            let si = s as usize;
            writeln!(
                f,
                "  F{} tag {}: remaining {:.3e} rate {:.3e} cap {:?}",
                self.arena.id[si],
                self.arena.tag[si],
                self.arena.remaining[si],
                self.arena.rate[si],
                self.arena.cap[si]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(path: Vec<ResourceId>, volume: f64) -> FlowSpec {
        FlowSpec {
            path,
            volume,
            weight: 1.0,
            cap: None,
            tag: 0,
        }
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 100.0);
        let f = net.start_flow(spec(vec![r], 1000.0));
        net.reallocate();
        assert_eq!(net.flow_rate(f), Some(100.0));
        assert_eq!(net.allocated(r), 100.0);
    }

    #[test]
    fn equal_flows_share_equally() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 90.0);
        let f1 = net.start_flow(spec(vec![r], 1000.0));
        let f2 = net.start_flow(spec(vec![r], 1000.0));
        let f3 = net.start_flow(spec(vec![r], 1000.0));
        net.reallocate();
        for f in [f1, f2, f3] {
            assert!((net.flow_rate(f).unwrap() - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn weights_respected() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 100.0);
        let heavy = net.start_flow(FlowSpec {
            weight: 3.0,
            ..spec(vec![r], 1000.0)
        });
        let light = net.start_flow(spec(vec![r], 1000.0));
        net.reallocate();
        assert!((net.flow_rate(heavy).unwrap() - 75.0).abs() < 1e-9);
        assert!((net.flow_rate(light).unwrap() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn cap_frees_bandwidth_for_others() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 100.0);
        let capped = net.start_flow(FlowSpec {
            cap: Some(10.0),
            ..spec(vec![r], 1000.0)
        });
        let elastic = net.start_flow(spec(vec![r], 1000.0));
        net.reallocate();
        assert!((net.flow_rate(capped).unwrap() - 10.0).abs() < 1e-9);
        assert!((net.flow_rate(elastic).unwrap() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn multi_resource_path_bottleneck() {
        let mut net = FluidNet::new();
        let wide = net.add_resource("wide", 100.0);
        let narrow = net.add_resource("narrow", 20.0);
        let through = net.start_flow(spec(vec![wide, narrow], 1000.0));
        let local = net.start_flow(spec(vec![wide], 1000.0));
        net.reallocate();
        // `through` is limited to 20 by the narrow hop; `local` takes the rest.
        assert!((net.flow_rate(through).unwrap() - 20.0).abs() < 1e-9);
        assert!((net.flow_rate(local).unwrap() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn elapse_completes_flows_in_order() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        let _short = net.start_flow(FlowSpec {
            tag: 1,
            ..spec(vec![r], 10.0)
        });
        let _long = net.start_flow(FlowSpec {
            tag: 2,
            ..spec(vec![r], 100.0)
        });
        net.reallocate();
        // Each gets 5 units/s; short completes at t=2.
        let t = net.time_to_next_completion().unwrap();
        assert!((t - 2.0).abs() < 1e-9);
        let done = net.elapse(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        // Long flow now gets full bandwidth.
        net.reallocate();
        let t2 = net.time_to_next_completion().unwrap();
        // Long flow transferred 10 of 100 units in the shared phase.
        assert!((t2 - 9.0).abs() < 1e-9, "t2={}", t2);
    }

    #[test]
    fn stall_accounting() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        // Two capped flows want 10 each but must share 10.
        let f1 = net.start_flow(FlowSpec {
            cap: Some(10.0),
            tag: 1,
            ..spec(vec![r], 10.0)
        });
        let _f2 = net.start_flow(FlowSpec {
            cap: Some(10.0),
            tag: 2,
            ..spec(vec![r], 10.0)
        });
        net.reallocate();
        assert!((net.flow_rate(f1).unwrap() - 5.0).abs() < 1e-9);
        let done = net.elapse(2.0);
        assert_eq!(done.len(), 2);
        for d in done {
            // Ran at half the cap for 2 s → 1 s equivalent stalled.
            assert!((d.stalled - 1.0).abs() < 1e-9);
            assert!((d.elapsed - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capacity_change_marks_dirty() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        let _f = net.start_flow(spec(vec![r], 100.0));
        net.reallocate();
        assert!(!net.is_dirty());
        net.set_capacity(r, 20.0);
        assert!(net.is_dirty());
        net.reallocate();
        assert!((net.allocated(r) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn cancel_flow_reports_progress() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        let f = net.start_flow(spec(vec![r], 100.0));
        net.reallocate();
        net.elapse(1.0);
        let rep = net.cancel_flow(f).unwrap();
        assert!((rep.remaining - 90.0).abs() < 1e-9);
        assert!((rep.elapsed - 1.0).abs() < 1e-9);
        assert!(net.cancel_flow(f).is_none());
    }

    #[test]
    fn delivered_and_busy_counters() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        let _f = net.start_flow(FlowSpec {
            cap: Some(5.0),
            ..spec(vec![r], 10.0)
        });
        net.reallocate();
        net.elapse(2.0);
        assert!((net.delivered(r) - 10.0).abs() < 1e-9);
        // Ran at 50 % utilization for 2 s.
        assert!((net.busy_integral(r) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_resource_stalls_flow() {
        let mut net = FluidNet::new();
        let r = net.add_resource("off", 0.0);
        let f = net.start_flow(spec(vec![r], 10.0));
        net.reallocate();
        assert_eq!(net.flow_rate(f), Some(0.0));
        assert!(net.time_to_next_completion().is_none());
    }

    #[test]
    fn demand_sums_caps() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 100.0);
        net.start_flow(FlowSpec {
            cap: Some(30.0),
            ..spec(vec![r], 10.0)
        });
        net.start_flow(spec(vec![r], 10.0)); // elastic counts as capacity
        assert!((net.demand(r) - 130.0).abs() < 1e-9);
    }

    #[test]
    fn independent_components_are_not_revisited() {
        let mut net = FluidNet::new();
        let left = net.add_resource("left", 100.0);
        let right = net.add_resource("right", 50.0);
        let fl = net.start_flow(spec(vec![left], 1e6));
        let _fr = net.start_flow(spec(vec![right], 1e6));
        let stats = net.reallocate();
        assert_eq!(stats.components, 2);
        assert_eq!(stats.flows_visited, 2);
        // A mutation on the right component must not re-solve the left one.
        let fr2 = net.start_flow(spec(vec![right], 1e6));
        let stats = net.reallocate();
        assert_eq!(stats.components, 1);
        assert_eq!(stats.flows_visited, 2);
        assert_eq!(net.flow_rate(fl), Some(100.0));
        assert!((net.flow_rate(fr2).unwrap() - 25.0).abs() < 1e-9);
        // No pending change: reallocation is a no-op.
        let stats = net.reallocate();
        assert_eq!(stats, ReallocStats::default());
    }

    #[test]
    fn slab_reuses_slots_but_never_ids() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        let a = net.start_flow(spec(vec![r], 10.0));
        let b = net.start_flow(spec(vec![r], 10.0));
        net.reallocate();
        net.cancel_flow(a).unwrap();
        let c = net.start_flow(spec(vec![r], 10.0));
        assert_ne!(a, c);
        assert!(net.flow_rate(a).is_none());
        net.reallocate();
        assert!((net.flow_rate(b).unwrap() - 5.0).abs() < 1e-9);
        assert!((net.flow_rate(c).unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(net.active_flows(), 2);
    }

    #[test]
    fn duplicate_path_entries_count_twice_in_allocated() {
        let mut net = FluidNet::new();
        let bus = net.add_resource("bus", 100.0);
        let f = net.start_flow(spec(vec![bus, bus], 10.0));
        net.reallocate();
        // The flow is indexed once (weight counted once) but its allocation
        // is charged per path occurrence, as the original solver did.
        assert_eq!(net.flow_rate(f), Some(100.0));
        assert_eq!(net.allocated(bus), 200.0);
        net.cancel_flow(f).unwrap();
        net.reallocate();
        assert_eq!(net.allocated(bus), 0.0);
        assert_eq!(net.demand(bus), 0.0);
    }

    #[test]
    fn fast_matches_reference_after_mutations() {
        let mut net = FluidNet::new();
        let a = net.add_resource("a", 100.0);
        let b = net.add_resource("b", 60.0);
        let c = net.add_resource("c", 30.0);
        let f1 = net.start_flow(spec(vec![a, b], 1e6));
        let f2 = net.start_flow(FlowSpec {
            cap: Some(12.0),
            ..spec(vec![b, c], 1e6)
        });
        let f3 = net.start_flow(spec(vec![c], 1e6));
        net.reallocate();
        net.set_flow_cap(f2, Some(7.0));
        net.set_capacity(a, 80.0);
        net.cancel_flow(f3).unwrap();
        net.reallocate();
        let fast: Vec<_> = [f1, f2].iter().map(|&f| net.flow_rate(f).map(f64::to_bits)).collect();
        let fast_alloc: Vec<_> = [a, b, c].iter().map(|&r| net.allocated(r).to_bits()).collect();
        reference::reallocate(&mut net);
        let refr: Vec<_> = [f1, f2].iter().map(|&f| net.flow_rate(f).map(f64::to_bits)).collect();
        let ref_alloc: Vec<_> = [a, b, c].iter().map(|&r| net.allocated(r).to_bits()).collect();
        assert_eq!(fast, refr);
        assert_eq!(fast_alloc, ref_alloc);
    }

    /// The waterfill fast path is an exact-bits shortcut of the general
    /// progressive fill: sweep randomized one-flow components (duplicate
    /// path entries, zero-capacity resources, caps on/off) and compare the
    /// two solvers' rates and allocations bitwise.
    #[test]
    fn waterfill_matches_general_loop_bitwise() {
        let mut rng = crate::Pcg32::new(42, 0x0dec0de);
        for case in 0..1000u32 {
            let mut net = FluidNet::new();
            let nres = 1 + rng.below(5) as usize;
            let rs: Vec<ResourceId> = (0..nres)
                .map(|i| {
                    let cap = match rng.below(8) {
                        0 => 0.0,
                        v => v as f64 * 13.75 + rng.next_f64(),
                    };
                    net.add_resource(format!("r{}", i), cap)
                })
                .collect();
            // Random path over the resources, duplicates allowed.
            let plen = 1 + rng.below(6) as usize;
            let path: Vec<ResourceId> =
                (0..plen).map(|_| rs[rng.below(nres as u32) as usize]).collect();
            let weight = 0.1 + rng.next_f64() * 9.9;
            let cap = (rng.below(2) == 1).then(|| 0.5 + rng.next_f64() * 200.0);
            net.start_flow(FlowSpec {
                path: path.clone(),
                volume: 1e6,
                weight,
                cap,
                tag: 0,
            });
            let slot = *net.index.values().next().expect("one flow");
            let mut comp_res: Vec<u32> = path.iter().map(|r| r.0).collect();
            comp_res.sort_unstable();
            comp_res.dedup();
            let comp_slots = [slot];
            let fast = solve_singleton(&net.resources, &net.arena, &comp_res, &comp_slots);
            let slow = solve_general(&net.resources, &net.arena, &comp_res, &comp_slots);
            assert!(fast.waterfill && !slow.waterfill);
            assert_eq!(
                fast.rate[0].to_bits(),
                slow.rate[0].to_bits(),
                "case {}: rate diverged ({} vs {})",
                case,
                fast.rate[0],
                slow.rate[0]
            );
            assert_eq!(fast.alloc.len(), slow.alloc.len());
            for (lr, (a, b)) in fast.alloc.iter().zip(&slow.alloc).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "case {}: alloc[{}]", case, lr);
            }
        }
    }
}
