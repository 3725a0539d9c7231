//! Collective operations as deterministic round-based schedules.
//!
//! A collective is compiled down to a [`Schedule`]: a sequence of rounds,
//! each a set of point-to-point messages that may proceed concurrently. The
//! executor ([`run`]) posts every receive of a round, then every send, and
//! drives the cluster until the round completes — a bulk-synchronous model
//! matching how MPI libraries pipeline chunked collectives (each round's
//! sends depend on data received in the previous round).
//!
//! Schedules carry enough semantic information (`chunk` identity and
//! combine-vs-copy) for [`Schedule::verify_semantics`] to prove, by tracking
//! per-rank contribution sets, that the message pattern actually computes
//! the collective — independently of any timing. `simcheck` fuzzes random
//! schedules through this checker and compares the simulated round times
//! against a naive sequential reference.
//!
//! Algorithms provided (the classics; see DESIGN.md §14 for closed forms):
//!
//! * [`Schedule::ring_allreduce`] — reduce-scatter + allgather on a ring,
//!   `2(n−1)` rounds of `⌈size/n⌉`-byte chunks;
//! * [`Schedule::tree_allreduce`] — binomial reduce to rank 0 then binomial
//!   broadcast, `2⌈log₂n⌉` rounds of full-payload messages;
//! * [`Schedule::binomial_bcast`] — `⌈log₂n⌉` rounds from rank 0;
//! * [`Schedule::pairwise_alltoall`] — `n−1` rounds, round `r` pairs rank
//!   `i` with `(i+r) mod n`.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use simcore::{Pcg32, SimTime};
use topology::fabric::Fabric;

use crate::{Cluster, ClusterError, ClusterEvent, ReqId};

/// A collective algorithm, as a value — the cache key's first component.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Algorithm {
    /// [`Schedule::ring_allreduce`].
    RingAllreduce,
    /// [`Schedule::tree_allreduce`].
    TreeAllreduce,
    /// [`Schedule::binomial_bcast`].
    BinomialBcast,
    /// [`Schedule::pairwise_alltoall`].
    PairwiseAlltoall,
}

impl Algorithm {
    fn build(self, nodes: usize, payload: usize) -> Schedule {
        match self {
            Algorithm::RingAllreduce => Schedule::ring_allreduce(nodes, payload),
            Algorithm::TreeAllreduce => Schedule::tree_allreduce(nodes, payload),
            Algorithm::BinomialBcast => Schedule::binomial_bcast(nodes, payload),
            Algorithm::PairwiseAlltoall => Schedule::pairwise_alltoall(nodes, payload),
        }
    }
}

/// Schedule-cache hit/miss totals since process start. Process-global (the
/// cache outlives campaign points), so they are surfaced through
/// `repro --timings` rather than the per-point telemetry journal — a
/// point's journal must not depend on which sweep point ran first.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that compiled (and proved) a new schedule.
    pub misses: u64,
}

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Schedule-cache totals for this process.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
    }
}

#[allow(clippy::type_complexity)]
fn cache() -> &'static Mutex<HashMap<(Algorithm, usize, usize), Arc<Schedule>>> {
    static CACHE: OnceLock<Mutex<HashMap<(Algorithm, usize, usize), Arc<Schedule>>>> =
        OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A compiled, semantics-proved schedule from the process-wide cache.
///
/// Schedules and their [`Schedule::verify_semantics`] proofs are pure
/// functions of `(algorithm, nodes, payload)` (chunking is derived from
/// them), so campaign sweeps that vary only background load, DVFS policy or
/// fabric preset stop recompiling and re-proving identical schedules at
/// every point. Keys follow the `core::store` content-addressing
/// discipline: the full input tuple is the key, and a cached entry is
/// returned only for an exact match. The first build of a key runs
/// `verify_semantics` and panics on a prover rejection — a builder bug, not
/// a runtime condition.
pub fn cached(algorithm: Algorithm, nodes: usize, payload: usize) -> Arc<Schedule> {
    let key = (algorithm, nodes, payload);
    if let Some(s) = cache().lock().expect("cache lock").get(&key) {
        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(s);
    }
    // Build outside the lock: compilation can be expensive and must not
    // serialize unrelated campaign workers.
    let s = algorithm.build(nodes, payload);
    s.verify_semantics().expect("builder schedules always prove");
    let s = Arc::new(s);
    let mut map = cache().lock().expect("cache lock");
    let entry = map.entry(key).or_insert_with(|| Arc::clone(&s));
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    Arc::clone(entry)
}

/// What the schedule computes; fixes the semantic pre/post-conditions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollectiveOp {
    /// Every rank ends with the reduction of every rank's contribution.
    Allreduce,
    /// Every rank ends with `root`'s payload.
    Bcast {
        /// Originating rank.
        root: usize,
    },
    /// Every rank ends with one distinct block from every other rank.
    Alltoall,
}

/// One point-to-point message inside a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleMsg {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Payload bytes.
    pub size: usize,
    /// Which logical chunk of the collective payload this message carries.
    pub chunk: u32,
    /// `true`: the receiver reduces the chunk into its own copy
    /// (contribution sets union); `false`: the receiver replaces its copy.
    pub combine: bool,
}

/// A set of messages that proceed concurrently.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// The round's messages; order is irrelevant to semantics and (by the
    /// interleave-independence invariant) to timing.
    pub msgs: Vec<ScheduleMsg>,
}

/// A compiled collective: rounds of point-to-point messages.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The operation the schedule claims to compute.
    pub op: CollectiveOp,
    /// Number of participating ranks.
    pub nodes: usize,
    /// Collective payload in bytes (per-pair block size for alltoall).
    pub payload: usize,
    /// The rounds, executed with a barrier between consecutive rounds.
    pub rounds: Vec<Round>,
}

fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

fn log2_ceil(n: usize) -> u32 {
    assert!(n >= 1);
    usize::BITS - (n - 1).leading_zeros()
}

impl Schedule {
    /// Ring allreduce: reduce-scatter then allgather over the logical ring
    /// `i → (i+1) mod n`, `2(n−1)` rounds of `⌈payload/n⌉`-byte chunks.
    pub fn ring_allreduce(nodes: usize, payload: usize) -> Schedule {
        assert!(nodes >= 2, "a collective needs at least two ranks");
        let chunk_size = ceil_div(payload, nodes);
        let mut rounds = Vec::with_capacity(2 * (nodes - 1));
        // Reduce-scatter: round r, rank i sends chunk (i − r) mod n to its
        // ring successor, which reduces it into its own copy.
        for r in 0..nodes - 1 {
            let msgs = (0..nodes)
                .map(|i| ScheduleMsg {
                    src: i,
                    dst: (i + 1) % nodes,
                    size: chunk_size,
                    chunk: ((i + nodes - r % nodes) % nodes) as u32,
                    combine: true,
                })
                .collect();
            rounds.push(Round { msgs });
        }
        // Allgather: rank i now owns the fully-reduced chunk (i+1) mod n;
        // circulate completed chunks, round r forwarding (i + 1 − r) mod n.
        for r in 0..nodes - 1 {
            let msgs = (0..nodes)
                .map(|i| ScheduleMsg {
                    src: i,
                    dst: (i + 1) % nodes,
                    size: chunk_size,
                    chunk: ((i + 1 + nodes - r % nodes) % nodes) as u32,
                    combine: false,
                })
                .collect();
            rounds.push(Round { msgs });
        }
        Schedule {
            op: CollectiveOp::Allreduce,
            nodes,
            payload,
            rounds,
        }
    }

    /// Binomial-tree allreduce: reduce to rank 0, then broadcast back down;
    /// `2⌈log₂n⌉` rounds, every message carries the full payload.
    pub fn tree_allreduce(nodes: usize, payload: usize) -> Schedule {
        assert!(nodes >= 2, "a collective needs at least two ranks");
        let levels = log2_ceil(nodes);
        let mut rounds = Vec::with_capacity(2 * levels as usize);
        // Reduce: mirror of the broadcast, deepest level first.
        for k in (0..levels).rev() {
            let span = 1usize << k;
            let msgs = (0..span)
                .filter(|r| r + span < nodes)
                .map(|r| ScheduleMsg {
                    src: r + span,
                    dst: r,
                    size: payload,
                    chunk: 0,
                    combine: true,
                })
                .collect();
            rounds.push(Round { msgs });
        }
        rounds.extend(bcast_rounds(nodes, payload, 0));
        Schedule {
            op: CollectiveOp::Allreduce,
            nodes,
            payload,
            rounds,
        }
    }

    /// Binomial broadcast from rank 0: `⌈log₂n⌉` rounds, round `k` doubling
    /// the set of ranks holding the payload.
    pub fn binomial_bcast(nodes: usize, payload: usize) -> Schedule {
        assert!(nodes >= 2, "a collective needs at least two ranks");
        Schedule {
            op: CollectiveOp::Bcast { root: 0 },
            nodes,
            payload,
            rounds: bcast_rounds(nodes, payload, 0),
        }
    }

    /// Pairwise-exchange alltoall: `n−1` rounds, round `r` sending rank
    /// `i`'s block to `(i+r) mod n`; `block` bytes per (src, dst) pair.
    pub fn pairwise_alltoall(nodes: usize, block: usize) -> Schedule {
        assert!(nodes >= 2, "a collective needs at least two ranks");
        let rounds = (1..nodes)
            .map(|r| Round {
                msgs: (0..nodes)
                    .map(|i| ScheduleMsg {
                        src: i,
                        dst: (i + r) % nodes,
                        size: block,
                        chunk: i as u32,
                        combine: false,
                    })
                    .collect(),
            })
            .collect();
        Schedule {
            op: CollectiveOp::Alltoall,
            nodes,
            payload: block,
            rounds,
        }
    }

    /// Total point-to-point messages across all rounds.
    pub fn total_messages(&self) -> usize {
        self.rounds.iter().map(|r| r.msgs.len()).sum()
    }

    /// Prove the schedule computes its [`CollectiveOp`] by dataflow alone:
    /// track, per (rank, chunk), the set of original contributions the
    /// rank's copy reflects. Messages within a round read the senders'
    /// *pre-round* state (they are concurrent). Returns a description of
    /// the first violated condition.
    pub fn verify_semantics(&self) -> Result<(), String> {
        let n = self.nodes;
        // Contribution sets as rank bitmasks: bit `r` set ⇔ original rank
        // r's contribution is merged into this (rank, chunk) copy. The
        // prover's inner loop is word-parallel OR/compare, and each round
        // snapshots only the sets its messages actually read — the naïve
        // whole-state clone made 1k-rank proofs take hours.
        let words = n.div_ceil(64);
        let singleton = |r: usize| {
            let mut b = vec![0u64; words];
            b[r / 64] |= 1u64 << (r % 64);
            b
        };
        let to_set = |b: &[u64]| -> BTreeSet<usize> {
            (0..n).filter(|&r| b[r / 64] >> (r % 64) & 1 == 1).collect()
        };
        // state[rank][chunk] = contribution bitmask.
        let mut state: Vec<HashMap<u32, Vec<u64>>> = vec![HashMap::new(); n];
        match self.op {
            CollectiveOp::Allreduce => {
                // Every rank contributes to every chunk of the payload.
                let chunks: BTreeSet<u32> = self
                    .rounds
                    .iter()
                    .flat_map(|r| r.msgs.iter().map(|m| m.chunk))
                    .collect();
                for (rank, st) in state.iter_mut().enumerate() {
                    for &c in &chunks {
                        st.insert(c, singleton(rank));
                    }
                }
            }
            CollectiveOp::Bcast { root } => {
                state[root].insert(0, singleton(root));
            }
            CollectiveOp::Alltoall => {
                for (rank, st) in state.iter_mut().enumerate() {
                    st.insert(rank as u32, singleton(rank));
                }
            }
        }
        let mut reads: Vec<Vec<u64>> = Vec::new();
        for (ri, round) in self.rounds.iter().enumerate() {
            // Concurrent semantics: all sends read pre-round state. Snapshot
            // exactly the sets this round's messages send, then apply.
            reads.clear();
            for m in &round.msgs {
                if m.src >= n || m.dst >= n || m.src == m.dst {
                    return Err(format!("round {}: invalid endpoints {:?}", ri, m));
                }
                let Some(held) = state[m.src]
                    .get(&m.chunk)
                    .filter(|s| s.iter().any(|&w| w != 0))
                else {
                    return Err(format!(
                        "round {}: rank {} sends chunk {} it does not hold",
                        ri, m.src, m.chunk
                    ));
                };
                reads.push(held.clone());
            }
            for (m, held) in round.msgs.iter().zip(reads.drain(..)) {
                if m.combine {
                    let dst = state[m.dst]
                        .entry(m.chunk)
                        .or_insert_with(|| vec![0u64; words]);
                    for (d, s) in dst.iter_mut().zip(&held) {
                        *d |= s;
                    }
                } else {
                    state[m.dst].insert(m.chunk, held);
                }
            }
        }
        let full: Vec<u64> = {
            let mut b = vec![0u64; words];
            for (i, w) in b.iter_mut().enumerate() {
                let bits = (n - i * 64).min(64);
                *w = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
            }
            b
        };
        match self.op {
            CollectiveOp::Allreduce => {
                let chunks: BTreeSet<u32> = state[0].keys().copied().collect();
                for (rank, st) in state.iter().enumerate() {
                    for &c in &chunks {
                        if st.get(&c) != Some(&full) {
                            return Err(format!(
                                "rank {} chunk {} is not fully reduced: {:?}",
                                rank,
                                c,
                                st.get(&c).map(|b| to_set(b))
                            ));
                        }
                    }
                }
            }
            CollectiveOp::Bcast { root } => {
                let want = singleton(root);
                for (rank, st) in state.iter().enumerate() {
                    if st.get(&0) != Some(&want) {
                        return Err(format!("rank {} did not receive the broadcast", rank));
                    }
                }
            }
            CollectiveOp::Alltoall => {
                for (rank, st) in state.iter().enumerate() {
                    for s in 0..n {
                        if st.get(&(s as u32)) != Some(&singleton(s)) {
                            return Err(format!(
                                "rank {} is missing the block from rank {}",
                                rank, s
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Bytes each fabric link is expected to carry for this schedule
    /// (payload only; control traffic is latency-modelled, not byte-
    /// accounted). Indexed like [`Fabric::links`].
    pub fn link_bytes(&self, fabric: &Fabric) -> Vec<f64> {
        let mut bytes = vec![0.0f64; fabric.links().len()];
        for round in &self.rounds {
            for m in &round.msgs {
                for &l in fabric.route(m.src, m.dst) {
                    bytes[l as usize] += (m.size as f64).max(1.0);
                }
            }
        }
        bytes
    }

    /// Relabel ranks through the permutation `perm` (rank `i` becomes
    /// `perm[i]`). On a symmetric fabric the permuted schedule must complete
    /// in exactly the same simulated time — the rank-permutation invariant.
    pub fn permute_ranks(&self, perm: &[usize]) -> Schedule {
        assert_eq!(perm.len(), self.nodes);
        let mut seen = vec![false; self.nodes];
        for &p in perm {
            assert!(p < self.nodes && !seen[p], "not a permutation");
            seen[p] = true;
        }
        let op = match self.op {
            CollectiveOp::Bcast { root } => CollectiveOp::Bcast { root: perm[root] },
            other => other,
        };
        let rounds = self
            .rounds
            .iter()
            .map(|r| Round {
                msgs: r
                    .msgs
                    .iter()
                    .map(|m| ScheduleMsg {
                        src: perm[m.src],
                        dst: perm[m.dst],
                        size: m.size,
                        // Alltoall chunk identity is the owning rank: relabel.
                        chunk: if self.op == CollectiveOp::Alltoall {
                            perm[m.chunk as usize] as u32
                        } else {
                            m.chunk
                        },
                        combine: m.combine,
                    })
                    .collect(),
            })
            .collect();
        Schedule {
            op,
            nodes: self.nodes,
            payload: self.payload,
            rounds,
        }
    }
}

fn bcast_rounds(nodes: usize, payload: usize, root: usize) -> Vec<Round> {
    assert_eq!(root, 0, "broadcast schedules are built root-0 then permuted");
    let levels = log2_ceil(nodes);
    (0..levels)
        .map(|k| {
            let span = 1usize << k;
            Round {
                msgs: (0..span)
                    .filter(|r| r + span < nodes)
                    .map(|r| ScheduleMsg {
                        src: r,
                        dst: r + span,
                        size: payload,
                        chunk: 0,
                        combine: false,
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Execute a schedule on the cluster: per round, post every receive, then
/// every send, then drive the engine until the round's requests complete.
/// Returns the simulated time the whole collective took.
///
/// `mtag_base + round` tags each round's messages; `buffer_base +
/// (src·nodes + dst)` keys the registration cache per pair, so a pair's
/// first rendezvous pays registration and later rounds run warm — the
/// recycled-buffer behaviour of real collectives.
pub fn run(
    cluster: &mut Cluster,
    schedule: &Schedule,
    mtag_base: u32,
    buffer_base: u64,
) -> Result<SimTime, ClusterError> {
    run_ordered(cluster, schedule, mtag_base, buffer_base, None)
}

/// [`run`], but with the *posting order* of each round's messages shuffled
/// by `shuffle_seed` when given. Timing must be independent of this order
/// (the interleave-independence invariant); `simcheck` exercises it.
pub fn run_ordered(
    cluster: &mut Cluster,
    schedule: &Schedule,
    mtag_base: u32,
    buffer_base: u64,
    shuffle_seed: Option<u64>,
) -> Result<SimTime, ClusterError> {
    assert_eq!(
        cluster.nodes(),
        schedule.nodes,
        "schedule rank count must match the cluster"
    );
    let start = cluster.engine.now();
    let nodes = schedule.nodes as u64;
    for (ri, round) in schedule.rounds.iter().enumerate() {
        let mut order: Vec<usize> = (0..round.msgs.len()).collect();
        if let Some(seed) = shuffle_seed {
            let mut rng = Pcg32::new(seed, ri as u64);
            // Fisher–Yates over the posting order.
            for i in (1..order.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
        let mtag = mtag_base + ri as u32;
        let n = round.msgs.len();
        if n == 0 {
            continue;
        }
        let mut reqs: Vec<(ReqId, ReqId)> = Vec::with_capacity(n);
        // Pre-post every receive of the round, then every send: rendezvous
        // handshakes find their receive already matched.
        for &mi in &order {
            let m = &round.msgs[mi];
            let r = cluster.irecv_from(m.dst, m.src, mtag);
            reqs.push((r, ReqId(0)));
        }
        for (k, &mi) in order.iter().enumerate() {
            let m = &round.msgs[mi];
            let buffer = buffer_base + m.src as u64 * nodes + m.dst as u64;
            let s = cluster.isend_to(m.src, m.dst, m.size, mtag, buffer);
            reqs[k].1 = s;
        }
        // Barrier: the next round's sends depend on this round's data.
        // Event-driven: requests are checked once up front (some complete
        // instantly at posting time), then marked off as their completion
        // events arrive — no O(round × events) rescans of the request list.
        // Request ids allocate sequentially, so this round's occupy the
        // dense ranges [r_base, r_base+n) and [s_base, s_base+n).
        let r_base = reqs[0].0 .0;
        let s_base = reqs[0].1 .0;
        let mut open = 2 * n;
        let mut done = vec![(false, false); n];
        for (k, &(r, s)) in reqs.iter().enumerate() {
            debug_assert_eq!(r.0, r_base + k as u32);
            debug_assert_eq!(s.0, s_base + k as u32);
            if cluster.test_recv(r) {
                done[k].0 = true;
                open -= 1;
            }
            if cluster.test_send(s) {
                done[k].1 = true;
                open -= 1;
            }
        }
        while open > 0 {
            match cluster.try_step()? {
                Some(ClusterEvent::RecvComplete(ReqId(x))) => {
                    if let Some(k) = x.checked_sub(r_base).map(|k| k as usize) {
                        if k < n && !done[k].0 {
                            done[k].0 = true;
                            open -= 1;
                        }
                    }
                }
                Some(ClusterEvent::SendComplete(ReqId(x))) => {
                    if let Some(k) = x.checked_sub(s_base).map(|k| k as usize) {
                        if k < n && !done[k].1 {
                            done[k].1 = true;
                            open -= 1;
                        }
                    }
                }
                Some(ClusterEvent::SendFailed { req, retries }) => {
                    return Err(ClusterError::TransferFailed { send: req, retries });
                }
                Some(_) => {}
                None => {
                    return Err(ClusterError::Dry {
                        pending_sends: cluster.pending_sends(),
                        pending_recvs: cluster.pending_recvs(),
                    });
                }
            }
        }
    }
    Ok(cluster.engine.now() - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use freq::{Governor, UncorePolicy};
    use topology::fabric::FabricPreset;
    use topology::{henri, tiny2x2, Placement};

    fn all_schedules(nodes: usize, payload: usize) -> Vec<(&'static str, Schedule)> {
        vec![
            ("ring_allreduce", Schedule::ring_allreduce(nodes, payload)),
            ("tree_allreduce", Schedule::tree_allreduce(nodes, payload)),
            ("binomial_bcast", Schedule::binomial_bcast(nodes, payload)),
            ("pairwise_alltoall", Schedule::pairwise_alltoall(nodes, payload)),
        ]
    }

    #[test]
    fn builders_pass_their_own_semantics() {
        for nodes in [2usize, 3, 4, 5, 8, 13, 16] {
            for (name, s) in all_schedules(nodes, 4096) {
                s.verify_semantics()
                    .unwrap_or_else(|e| panic!("{} n={}: {}", name, nodes, e));
            }
        }
    }

    #[test]
    fn round_counts_match_the_textbook() {
        let n = 8;
        assert_eq!(Schedule::ring_allreduce(n, 1024).rounds.len(), 2 * (n - 1));
        assert_eq!(Schedule::tree_allreduce(n, 1024).rounds.len(), 2 * 3);
        assert_eq!(Schedule::binomial_bcast(n, 1024).rounds.len(), 3);
        assert_eq!(Schedule::pairwise_alltoall(n, 1024).rounds.len(), n - 1);
        // Non-power-of-two: ⌈log₂ 5⌉ = 3.
        assert_eq!(Schedule::binomial_bcast(5, 64).rounds.len(), 3);
    }

    #[test]
    fn semantics_checker_rejects_a_dropped_message() {
        let mut s = Schedule::ring_allreduce(4, 4096);
        s.rounds[2].msgs.remove(1);
        assert!(s.verify_semantics().is_err());
        let mut b = Schedule::binomial_bcast(8, 64);
        b.rounds[1].msgs.pop();
        assert!(b.verify_semantics().is_err());
    }

    #[test]
    fn semantics_checker_rejects_chunks_not_held() {
        // Rank 1 forwards the broadcast a round too early (it only receives
        // the payload in round 0 — concurrent reads use pre-round state).
        let mut s = Schedule::binomial_bcast(4, 64);
        s.rounds[0].msgs.push(ScheduleMsg {
            src: 1,
            dst: 3,
            size: 64,
            chunk: 0,
            combine: false,
        });
        assert!(s.verify_semantics().is_err());
    }

    #[test]
    fn permuted_schedules_stay_semantically_valid() {
        let perm = [3usize, 0, 2, 1, 5, 4, 7, 6];
        for (name, s) in all_schedules(8, 2048) {
            let p = s.permute_ranks(&perm);
            p.verify_semantics()
                .unwrap_or_else(|e| panic!("{} permuted: {}", name, e));
        }
    }

    #[test]
    fn eight_rank_collectives_run_on_every_preset() {
        for preset in FabricPreset::ALL {
            let fabric = preset.spec(8).build_for(8);
            let mut c = Cluster::with_fabric(
                &henri(),
                fabric,
                Governor::Userspace(2.3),
                UncorePolicy::Fixed(2.4),
                Placement::fig4_default(),
            );
            let s = Schedule::ring_allreduce(8, 64 * 1024);
            let t = run(&mut c, &s, 100, 0x4000).expect("collective completes");
            assert!(t > SimTime::ZERO);
        }
    }

    #[test]
    fn ring_allreduce_two_ranks_matches_direct_world() {
        // n = 2 ring allreduce is exactly one exchange + one gather round on
        // the paper's direct wire.
        let mut c = Cluster::new(
            &tiny2x2(),
            Governor::Userspace(2.0),
            UncorePolicy::Fixed(2.0),
            Placement::fig4_default(),
        );
        let s = Schedule::ring_allreduce(2, 8192);
        assert_eq!(s.rounds.len(), 2);
        let t = run(&mut c, &s, 7, 0x100).expect("completes");
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn link_bytes_accounts_every_hop() {
        let fabric = FabricPreset::Torus.spec(8).build_for(8);
        let s = Schedule::pairwise_alltoall(8, 1000);
        let per_link = s.link_bytes(&fabric);
        let total: f64 = per_link.iter().sum();
        let hops: usize = s
            .rounds
            .iter()
            .flat_map(|r| r.msgs.iter())
            .map(|m| fabric.route(m.src, m.dst).len())
            .sum();
        assert_eq!(total, hops as f64 * 1000.0);
    }
}
