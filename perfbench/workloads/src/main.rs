//! Library-side workloads of the repository benchmark (`perfbench/run.py`
//! builds and drives this binary; it is not meant to be run by hand).
//!
//! Each subcommand prints one JSON object on stdout:
//!
//! ```text
//! grid                                  the Quick harvest grid advisor queries draw from
//! allreduce  --seed N --seconds S [--trace 0|1] [--spans FILE]
//! contention --seed N --seconds S [--trace 0|1] [--spans FILE]
//! harvest    --store DIR                one cold harvest into a fresh result store
//! advisor    --seed N --seconds S --store DIR --scratch DIR --spans FILE
//!                                       traced probe of the predict and store layers
//! ```
//!
//! An operation's host time is taken with `Instant` around the library call
//! alone. Set-up is repeated before every operation (the cluster or engine
//! is rebuilt anyway) and reported as one sample per operation. With
//! `--trace 1` a span is recorded around every call into a
//! layer's public function, telemetry is recorded on every other operation
//! (so the traced run also yields the recorder's overhead), and the spans
//! are written to `--spans` at exit.

mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use freq::{Governor, UncorePolicy};
use interference::campaign::{self, CampaignOptions, StoreCtx};
use interference::experiments::harvest::{self, PairSpec};
use interference::experiments::{self, Fidelity};
use interference::store::ResultStore;
use mpisim::collective::{self, Algorithm, Schedule};
use mpisim::Cluster;
use predict::advisor::{default_params, Advisor};
use simcore::{telemetry, Engine, Event, FlowSpec, Journal, Pcg32, ResourceId, SimTime, TimerId};
use topology::fabric::FabricPreset;
use topology::{tiny2x2, BindingPolicy, Placement};

use spans::Spans;

/// Ring allreduce: 256 ranks, 256 KiB payload (the scaling bench's row).
const RANKS: usize = 256;
const PAYLOAD: usize = 256 << 10;
const MTAG_BASE: u32 = 100;
const BUFFER_BASE: u64 = 0x8000;

/// Fabric contention: 512 nodes in racks of 8, 4 transfer rounds each.
const NODES: usize = 512;
const ROUNDS: u64 = 4;
const TAG_POLL: u64 = 1 << 32;
const TAG_WATCHDOG: u64 = 1 << 33;
/// Poll cadence per node (10 µs simulated) and watchdog horizon (1 ms).
const POLL_PS: u64 = 10_000_000;
const WATCHDOG_PS: u64 = 1_000_000_000;

struct Args {
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    store: Option<String>,
    scratch: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        seconds: 1.0,
        trace: false,
        spans: None,
        store: None,
        scratch: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        let bad = || format!("bad value for {}: {}", flag, value);
        match flag.as_str() {
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value == "1",
            "--spans" => a.spans = Some(value.clone()),
            "--store" => a.store = Some(value.clone()),
            "--scratch" => a.scratch = Some(value.clone()),
            _ => return Err(format!("unknown argument: {}", flag)),
        }
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench-workloads grid|allreduce|contention|harvest|advisor [args]");
        std::process::exit(2);
    };
    let args = parse(rest).unwrap_or_else(|e| {
        eprintln!("error: {}", e);
        std::process::exit(2);
    });
    let mut spans = Spans::new(args.trace);
    let out = match cmd.as_str() {
        "grid" => grid_json(),
        "allreduce" => allreduce(&args, &mut spans),
        "contention" => contention(&args, &mut spans),
        "harvest" => harvest_cold(&args),
        "advisor" => advisor(&args, &mut spans),
        other => {
            eprintln!("unknown subcommand: {}", other);
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.spans {
        spans.write(path).unwrap_or_else(|e| {
            eprintln!("error: cannot write spans to {}: {}", path, e);
            std::process::exit(1);
        });
    }
    println!("{}", out);
}

/// Minimal JSON object writer (keys are fixed identifiers; strings are
/// digests and labels without quotes or backslashes).
struct Obj(String);

impl Obj {
    fn new() -> Obj {
        Obj(String::from("{"))
    }
    fn key(&mut self, k: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        write!(self.0, "\"{}\":", k).expect("writing to a String cannot fail");
    }
    fn num(mut self, k: &str, v: f64) -> Obj {
        self.key(k);
        assert!(v.is_finite(), "{} is not finite", k);
        write!(self.0, "{}", v).expect("writing to a String cannot fail");
        self
    }
    fn int(mut self, k: &str, v: u64) -> Obj {
        self.key(k);
        write!(self.0, "{}", v).expect("writing to a String cannot fail");
        self
    }
    fn str(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        write!(self.0, "\"{}\"", v).expect("writing to a String cannot fail");
        self
    }
    fn raw(mut self, k: &str, json: &str) -> Obj {
        self.key(k);
        self.0.push_str(json);
        self
    }
    fn done(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// One timed operation.
struct Op {
    wall_s: f64,
    ok: bool,
    recorded: bool,
    events: u64,
    sim_ps: u64,
}

impl Op {
    fn json(&self) -> String {
        Obj::new()
            .num("wall_s", self.wall_s)
            .raw("ok", if self.ok { "true" } else { "false" })
            .raw("recorded", if self.recorded { "true" } else { "false" })
            .int("events", self.events)
            .int("sim_ps", self.sim_ps)
            .done()
    }
}

/// Telemetry counters summed over the recorded operations.
#[derive(Default)]
struct Counters {
    sums: BTreeMap<&'static str, u64>,
    records: u64,
}

impl Counters {
    fn add(&mut self, j: &Journal) {
        for (k, v) in &j.counters {
            *self.sums.entry(k).or_insert(0) += v;
        }
        self.records += j.records.len() as u64;
    }
    fn json(&self) -> String {
        let mut o = Obj::new().int("telemetry.records", self.records);
        for (k, v) in &self.sums {
            o = o.int(k, *v);
        }
        o.done()
    }
}

fn result_json(setup_s: &[f64], ops: &[Op], counters: &Counters, digest: u64) -> String {
    Obj::new()
        .raw("setup_s", &array(setup_s.iter().map(|s| s.to_string())))
        .raw("ops", &array(ops.iter().map(Op::json)))
        .raw("counters", &counters.json())
        .str("digest", &format!("{:016x}", digest))
        .int("schedule_cache_misses", collective::cache_stats().misses)
        .done()
}

/// FNV-1a over 64-bit words: the digest of a workload's simulated results.
fn digest(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

fn grid_json() -> String {
    array(harvest::grid(Fidelity::Quick).iter().map(|s| {
        format!(
            "[\"{}\",\"{}\",{},{},\"{}\"]",
            s.preset.spec().name,
            s.family.tag(),
            s.cores,
            s.placement,
            s.metric.tag()
        )
    }))
}

fn build_cluster() -> Cluster {
    let spec = tiny2x2();
    Cluster::with_fabric(
        &spec,
        FabricPreset::Switch.spec(RANKS).build_for(RANKS),
        Governor::Userspace(spec.base_freq),
        UncorePolicy::Fixed(spec.uncore_range.1),
        Placement {
            comm_thread: BindingPolicy::NearNic,
            data: BindingPolicy::NearNic,
        },
    )
}

/// 256-rank ring allreduce: set-up builds the cluster and compiles and
/// proves the schedule (a cache miss the first time; the same build and
/// proof, uncached, before every later operation). Each operation runs the
/// collective on a fresh cluster with a seed-derived posting order, which
/// must not change its simulated completion time or event count.
fn allreduce(a: &Args, sp: &mut Spans) -> String {
    let t = Instant::now();
    let s = sp.begin("topology.cluster_build");
    let mut cluster = build_cluster();
    sp.end(s);
    let s = sp.begin("mpi.schedule_build");
    let sched = collective::cached(Algorithm::RingAllreduce, RANKS, PAYLOAD);
    sp.end(s);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    // Reference: the unshuffled run, recorded for its event count.
    telemetry::install();
    let reference = collective::run(&mut cluster, &sched, MTAG_BASE, BUFFER_BASE);
    let journal = telemetry::take().expect("recorder installed");
    drop(cluster);
    let ref_events = journal.counters.get("engine.events").copied().unwrap_or(0);
    let ref_ps = reference.as_ref().map_or(0, |t| t.0);

    let mut ops = Vec::new();
    let mut counters = Counters::default();
    let end = deadline(a.seconds);
    while ops.is_empty() || Instant::now() < end {
        let i = ops.len() as u64;
        sp.set_op(i as i64);
        let root = sp.begin("op");
        let t = Instant::now();
        let s = sp.begin("topology.cluster_build");
        let mut cluster = build_cluster();
        sp.end(s);
        let s = sp.begin("mpi.schedule_build");
        let proved = Schedule::ring_allreduce(RANKS, PAYLOAD)
            .verify_semantics()
            .is_ok();
        sp.end(s);
        setup_s.push(t.elapsed().as_secs_f64());
        let recorded = a.trace && i.is_multiple_of(2);
        if recorded {
            telemetry::install();
        }
        let shuffle = a.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i;
        let s = sp.begin("mpi.collective_run");
        let t = Instant::now();
        let r =
            collective::run_ordered(&mut cluster, &sched, MTAG_BASE, BUFFER_BASE, Some(shuffle));
        let wall_s = t.elapsed().as_secs_f64();
        sp.end(s);
        let events = if recorded {
            let j = telemetry::take().expect("recorder installed");
            counters.add(&j);
            j.counters.get("engine.events").copied().unwrap_or(0)
        } else {
            ref_events
        };
        drop(cluster);
        sp.end(root);
        let sim_ps = r.as_ref().map_or(0, |t| t.0);
        ops.push(Op {
            wall_s,
            ok: proved
                && reference.is_ok()
                && r.is_ok()
                && sim_ps == ref_ps
                && events == ref_events,
            recorded,
            events,
            sim_ps,
        });
    }
    result_json(&setup_s, &ops, &counters, digest(&[ref_ps, ref_events]))
}

/// The fabric-contention synthetic: nodes in racks of 8 behind a shared,
/// oversubscribed fabric resource; every node streams `ROUNDS` transfers
/// to a far peer while a poll timer re-arms (cancels and reschedules) a
/// watchdog. Flow volumes and poll jitter come from the seed.
struct Contention {
    eng: Engine,
    nodes: Nodes,
}

/// Per-node state the event handler drives.
struct Nodes {
    /// (nic, rack) of each node.
    paths: Vec<[ResourceId; 2]>,
    fabric: ResourceId,
    rng: Pcg32,
    remaining: Vec<u64>,
    watchdog: Vec<Option<TimerId>>,
}

struct Scenario {
    events: u64,
    flows: u64,
    sim_end: SimTime,
}

impl Nodes {
    fn start_transfer(&mut self, eng: &mut Engine, node: usize) {
        let dst = (node + NODES / 2 + 1) % NODES;
        let [nic, rack] = self.paths[node];
        let [dst_nic, dst_rack] = self.paths[dst];
        eng.start_flow(FlowSpec {
            path: vec![nic, rack, self.fabric, dst_rack, dst_nic],
            volume: 4e5 * (1.0 + self.rng.next_f64()),
            weight: 1.0,
            cap: None,
            tag: node as u64,
        });
    }

    fn handle(&mut self, eng: &mut Engine, event: Event) {
        match event {
            Event::Flow { tag, .. } => {
                let node = tag as usize;
                self.remaining[node] -= 1;
                if self.remaining[node] > 0 {
                    self.start_transfer(eng, node);
                } else if let Some(id) = self.watchdog[node].take() {
                    eng.cancel_timer(id);
                }
            }
            Event::Timer { tag } if tag >= TAG_WATCHDOG => {
                // A watchdog outlived its horizon; the poll re-arms it.
                self.watchdog[(tag - TAG_WATCHDOG) as usize] = None;
            }
            Event::Timer { tag } => {
                let node = (tag - TAG_POLL) as usize;
                if self.remaining[node] > 0 {
                    if let Some(id) = self.watchdog[node].take() {
                        eng.cancel_timer(id);
                    }
                    self.watchdog[node] =
                        Some(eng.after(SimTime(WATCHDOG_PS), TAG_WATCHDOG + node as u64));
                    eng.after(SimTime(POLL_PS), TAG_POLL + node as u64);
                }
            }
        }
    }
}

impl Contention {
    fn build(seed: u64) -> Contention {
        let mut eng = Engine::new();
        let fabric = eng.add_resource("fabric", (NODES as f64 / 16.0).max(1.0) * 12.5e9);
        let racks: Vec<ResourceId> = (0..NODES.div_ceil(8))
            .map(|r| eng.add_resource(format!("rack{}", r), 100e9))
            .collect();
        let paths = (0..NODES)
            .map(|i| [eng.add_resource(format!("nic{}", i), 12.5e9), racks[i / 8]])
            .collect();
        let mut nodes = Nodes {
            paths,
            fabric,
            rng: Pcg32::new(seed, 0x5ca1_ab1e),
            remaining: vec![ROUNDS; NODES],
            watchdog: vec![None; NODES],
        };
        for node in 0..NODES {
            nodes.start_transfer(&mut eng, node);
            // Staggered first poll so instants mix bursts with lone timers.
            let jitter = nodes.rng.below(1 + (POLL_PS / 2) as u32) as u64;
            eng.after(SimTime(POLL_PS + jitter), TAG_POLL + node as u64);
            nodes.watchdog[node] =
                Some(eng.after(SimTime(WATCHDOG_PS), TAG_WATCHDOG + node as u64));
        }
        Contention { eng, nodes }
    }

    /// Run to quiescence; each callback is a (folded) leaf span, so the
    /// engine's self time excludes the benchmark's own handling.
    fn run(self, sp: &mut Spans) -> (Scenario, f64) {
        let Contention { mut eng, mut nodes } = self;
        let mut events = 0u64;
        let mut flows = 0u64;
        let s = sp.begin("engine.run");
        let t = Instant::now();
        eng.run(|eng, event| {
            let cb = sp.clock();
            events += 1;
            flows += matches!(event, Event::Flow { .. }) as u64;
            nodes.handle(eng, event);
            sp.leaf("bench.callback", cb);
        });
        let wall_s = t.elapsed().as_secs_f64();
        sp.end(s);
        let scenario = Scenario {
            events,
            flows,
            sim_end: eng.now(),
        };
        (scenario, wall_s)
    }
}

/// 512-node fabric contention: set-up builds a scenario's engine (one
/// sample per operation); each operation runs one scenario. Every scenario
/// of a run uses the run's seed, so all must agree.
fn contention(a: &Args, sp: &mut Spans) -> String {
    let mut setup_s = Vec::new();
    let mut ops: Vec<Op> = Vec::new();
    let mut counters = Counters::default();
    let mut first: Option<(u64, u64)> = None;
    let end = deadline(a.seconds);
    while ops.is_empty() || Instant::now() < end {
        let i = ops.len() as u64;
        sp.set_op(i as i64);
        let root = sp.begin("op");
        let t = Instant::now();
        let s = sp.begin("engine.build");
        let scenario = Contention::build(a.seed);
        sp.end(s);
        setup_s.push(t.elapsed().as_secs_f64());
        let recorded = a.trace && i.is_multiple_of(2);
        if recorded {
            telemetry::install();
        }
        let (scenario, wall_s) = scenario.run(sp);
        if recorded {
            counters.add(&telemetry::take().expect("recorder installed"));
        }
        sp.end(root);
        let key = (scenario.sim_end.0, scenario.events);
        let reference = *first.get_or_insert(key);
        ops.push(Op {
            wall_s,
            ok: scenario.flows == NODES as u64 * ROUNDS && key == reference,
            recorded,
            events: scenario.events,
            sim_ps: scenario.sim_end.0,
        });
    }
    let (sim_ps, events) = first.expect("at least one scenario ran");
    result_json(&setup_s, &ops, &counters, digest(&[a.seed, sim_ps, events]))
}

fn harvest_opts() -> CampaignOptions {
    CampaignOptions::new(Fidelity::Quick, 2)
}

fn open_store(dir: &Option<String>, flag: &str) -> ResultStore {
    let dir = dir.as_ref().unwrap_or_else(|| {
        eprintln!("error: {} DIR is required", flag);
        std::process::exit(2);
    });
    ResultStore::open(dir).unwrap_or_else(|e| {
        eprintln!("error: cannot open result store {}: {}", dir, e);
        std::process::exit(1);
    })
}

/// Harvest the advisor's training grid into `store`, restoring what it
/// already holds: the same call `repro predict --store DIR --resume` makes.
fn harvest_into(store: &ResultStore) -> Vec<harvest::TrainingPair> {
    let ctx = StoreCtx {
        store,
        resume: true,
    };
    let outcomes = campaign::run_outcomes_with_store(
        experiments::HARVEST_EXPERIMENT,
        &harvest_opts(),
        Some(ctx),
    );
    harvest::collect_pairs(&outcomes)
}

fn store_json(s: interference::StoreStats) -> String {
    Obj::new()
        .int("hits", s.hits)
        .int("misses", s.misses)
        .int("persisted", s.persisted)
        .int("quarantined", s.quarantined)
        .done()
}

/// Advisor set-up: one cold harvest of the Quick grid into a fresh store.
fn harvest_cold(a: &Args) -> String {
    let store = open_store(&a.store, "--store");
    let t = Instant::now();
    let pairs = harvest_into(&store);
    let setup_s = t.elapsed().as_secs_f64();
    Obj::new()
        .num("setup_s", setup_s)
        .int("pairs", pairs.len() as u64)
        .raw("store", &store_json(store.stats()))
        .done()
}

/// Traced probe of the layers under `repro predict`/`rank-placements`:
/// cold harvest, warm restore, store put/get of every harvested payload,
/// then train + query (3 of 4) or train + rank (1 of 4) per operation on
/// seed-drawn grid queries. Telemetry is recorded on every other query.
fn advisor(a: &Args, sp: &mut Spans) -> String {
    let store = open_store(&a.store, "--store");
    let scratch = open_store(&a.scratch, "--scratch");
    let s = sp.begin("predict.harvest");
    let cold = harvest_into(&store);
    sp.end(s);
    let before = store.stats();
    let s = sp.begin("predict.restore");
    let pairs = harvest_into(&store);
    sp.end(s);
    let after = store.stats();
    let warm = interference::StoreStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        persisted: after.persisted - before.persisted,
        quarantined: after.quarantined - before.quarantined,
    };
    let mut store_ok = cold.len() == pairs.len() && warm.hits == pairs.len() as u64;

    for p in &pairs {
        let s = sp.begin("store.put");
        let put = scratch.put(&p.spec.label(), &p.encode());
        sp.end(s);
        store_ok &= put.is_ok();
    }
    for p in &pairs {
        let s = sp.begin("store.get");
        let got = scratch.get(&p.spec.label()).hit();
        sp.end(s);
        store_ok &= got == Some(p.encode());
    }

    let grid = harvest::grid(Fidelity::Quick);
    let mut rng = Pcg32::new(a.seed, 0xad71_5e55);
    let params = default_params();
    let mut ops = Vec::new();
    let mut counters = Counters::default();
    let mut answers: Vec<u64> = Vec::new();
    let end = deadline(a.seconds);
    while ops.is_empty() || Instant::now() < end {
        let i = ops.len() as u64;
        sp.set_op(i as i64);
        let q: PairSpec = grid[rng.below(grid.len() as u32) as usize];
        let root = sp.begin("op");
        let t = Instant::now();
        let s = sp.begin("predict.train");
        let advisor = Advisor::train_excluding(&pairs, &params, |s| {
            !(s.preset == q.preset && s.family == q.family)
        });
        sp.end(s);
        let recorded = i.is_multiple_of(2);
        let answer: Result<Vec<f64>, String> = match &advisor {
            None => Err("no training pairs".into()),
            Some(adv) if i % 4 == 3 => {
                let s = sp.begin("predict.rank");
                let r = adv.rank_placements(&q, Fidelity::Quick);
                sp.end(s);
                r.map(|v| v.iter().map(|p| p.combined).collect())
            }
            Some(adv) => {
                if recorded {
                    telemetry::install();
                }
                let s = sp.begin("predict.query");
                let r = adv.predict_spec(&q, Fidelity::Quick);
                sp.end(s);
                if recorded {
                    counters.add(&telemetry::take().expect("recorder installed"));
                }
                r.map(|(comm, compute)| vec![comm, compute])
            }
        };
        let wall_s = t.elapsed().as_secs_f64();
        sp.end(root);
        let ok = answer.is_ok();
        answers.extend(answer.unwrap_or_default().iter().map(|x| x.to_bits()));
        ops.push(Op {
            wall_s,
            ok,
            recorded,
            events: 0,
            sim_ps: 0,
        });
    }
    Obj::new()
        .raw("ops", &array(ops.iter().map(Op::json)))
        .raw("counters", &counters.json())
        .str("digest", &format!("{:016x}", digest(&answers)))
        .raw("store_ok", if store_ok { "true" } else { "false" })
        .raw("store", &store_json(warm))
        .int("pairs", pairs.len() as u64)
        .done()
}
