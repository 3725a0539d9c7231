//! Engine scaling benchmark: events/sec and flows/sec vs synthetic node
//! count.
//!
//! Builds a contention scenario shaped like the paper's cluster runs: nodes
//! in racks of 8 behind a shared rack switch, all racks meeting at an
//! oversubscribed fabric resource, every node streaming rounds of transfers
//! to a far peer while per-node poll timers churn (schedule + cancel a
//! watchdog on every poll — the tombstone traffic the timing wheel absorbs).
//! The workload scales resources, flows and timers linearly with the node
//! count, so throughput here tracks the simulation core: timer queue,
//! same-instant batching and the component solver together.
//!
//! Per Hunold & Carpen-Amarie ("Reproducible MPI benchmarking"), every
//! configuration runs `SCALING_REPS` repetitions and the report keeps all
//! of them plus median and relative spread — a single hot number hides
//! exactly the variance that makes wall-clock claims irreproducible.
//!
//! A second section scales the *full stack* instead of the bare engine: a
//! ring allreduce on real N-rank clusters (tiny2x2 machines on the switch
//! fabric), rank counts 8→256, reporting simulated-events/sec through
//! mpisim + netsim + the fabric's per-hop flows. The synthetic scenario
//! isolates the event core; the allreduce column catches regressions in
//! the layers above it (matching, protocol timers, multi-hop max-min).
//!
//! Environment knobs (all optional):
//!   SCALING_NODES               comma list of node counts (default 64,256,1024)
//!   SCALING_REPS                repetitions per size (default 5)
//!   SCALING_ROUNDS              transfer rounds per node (default 4)
//!   SCALING_FLOOR_EVENTS_PER_SEC  exit 1 if any size's median falls below
//!   SCALING_ALLREDUCE_RANKS     comma list of rank counts (default 8,64,256,1024)
//!   SCALING_ALLREDUCE_FLOOR_EVENTS_PER_SEC  exit 1 if any rank count's
//!                               median falls below
//!   SCALING_ALLREDUCE_MAX_WALL_S  exit 1 if any rank count's median wall
//!                               time exceeds this (the 1k-rank gate)
//!   SCALING_COLLECTIVE_ROWS     comma list of alg:ranks rows for the other
//!                               collectives (default bcast:256,alltoall:64)
//!   SCALING_OUT                 write the JSON table to this path
//!
//! Run with: `cargo bench -p bench --features bench-harness --bench scaling`

use std::time::Instant;

use freq::{Governor, UncorePolicy};
use mpisim::collective::{self, Algorithm};
use mpisim::Cluster;
use simcore::{quantile, telemetry, Engine, Event, FlowSpec, Pcg32, SimTime, TimerId};
use topology::fabric::FabricPreset;
use topology::{tiny2x2, BindingPolicy, Placement};

/// Tag namespaces: flow tags are bare node indices.
const TAG_POLL: u64 = 1 << 32;
const TAG_WATCHDOG: u64 = 1 << 33;

/// Poll cadence per node (10 µs of simulated time).
const POLL_PS: u64 = 10_000_000;
/// Watchdog horizon per poll (1 ms; usually cancelled long before firing).
const WATCHDOG_PS: u64 = 1_000_000_000;

struct RunResult {
    wall_s: f64,
    events: u64,
    flow_events: u64,
    sim_end: SimTime,
}

/// One full scenario at `nodes` nodes: every node pushes `rounds` transfers
/// across nic → rack → fabric → rack → nic while polling; runs to
/// quiescence and reports wall time plus event counts.
fn run_scenario(nodes: usize, rounds: u64) -> RunResult {
    let mut eng = Engine::new();
    let fabric = eng.add_resource("fabric", (nodes as f64 / 16.0).max(1.0) * 12.5e9);
    let n_racks = nodes.div_ceil(8);
    let racks: Vec<_> = (0..n_racks)
        .map(|r| eng.add_resource(format!("rack{}", r), 100e9))
        .collect();
    let nics: Vec<_> = (0..nodes)
        .map(|i| eng.add_resource(format!("nic{}", i), 12.5e9))
        .collect();

    let mut rng = Pcg32::new(nodes as u64, 0x5ca1_ab1e);
    let start_transfer = |eng: &mut Engine, rng: &mut Pcg32, node: usize| {
        let dst = (node + nodes / 2 + 1) % nodes;
        eng.start_flow(FlowSpec {
            path: vec![
                nics[node],
                racks[node / 8],
                fabric,
                racks[dst / 8],
                nics[dst],
            ],
            volume: 4e5 * (1.0 + rng.next_f64()),
            weight: 1.0,
            cap: None,
            tag: node as u64,
        });
    };

    let mut remaining: Vec<u64> = vec![rounds; nodes];
    let mut watchdog: Vec<Option<TimerId>> = vec![None; nodes];
    for (node, slot) in watchdog.iter_mut().enumerate() {
        start_transfer(&mut eng, &mut rng, node);
        // Staggered first poll so instants mix bursts with lone timers.
        let jitter = rng.below(1 + (POLL_PS / 2) as u32) as u64;
        eng.after(SimTime(POLL_PS + jitter), TAG_POLL + node as u64);
        *slot = Some(eng.after(SimTime(WATCHDOG_PS), TAG_WATCHDOG + node as u64));
    }

    let mut events = 0u64;
    let mut flow_events = 0u64;
    let wall = Instant::now();
    eng.run(|eng, event| {
        events += 1;
        match event {
            Event::Flow { tag, .. } => {
                flow_events += 1;
                let node = tag as usize;
                remaining[node] -= 1;
                if remaining[node] > 0 {
                    start_transfer(eng, &mut rng, node);
                } else if let Some(id) = watchdog[node].take() {
                    eng.cancel_timer(id);
                }
            }
            Event::Timer { tag } if tag >= TAG_WATCHDOG => {
                // A watchdog survived a full horizon (heavy contention);
                // the poll path re-arms it.
                watchdog[(tag - TAG_WATCHDOG) as usize] = None;
            }
            Event::Timer { tag } => {
                let node = (tag - TAG_POLL) as usize;
                if remaining[node] > 0 {
                    // Re-arm: cancel the old watchdog (tombstone) and push
                    // both timers out — the wheel's churn hot path.
                    if let Some(id) = watchdog[node].take() {
                        eng.cancel_timer(id);
                    }
                    watchdog[node] =
                        Some(eng.after(SimTime(WATCHDOG_PS), TAG_WATCHDOG + node as u64));
                    eng.after(SimTime(POLL_PS), TAG_POLL + node as u64);
                }
            }
        }
    });
    RunResult {
        wall_s: wall.elapsed().as_secs_f64(),
        events,
        flow_events,
        sim_end: eng.now(),
    }
}

/// Ring-allreduce payload: 256 KiB, the collective-contention experiment's
/// eager-path size (per-chunk size shrinks with the rank count).
const ALLREDUCE_PAYLOAD: usize = 256 << 10;

/// One collective across `ranks` tiny2x2 nodes on the switch fabric — the
/// full mpisim/netsim/fabric stack, not the bare engine. Events come from
/// the engine's telemetry counter; `flow_events` reports the schedule's
/// point-to-point message count. Schedules come from the verified cache,
/// so repetitions measure the simulation, not schedule compilation.
fn run_collective(alg: Algorithm, ranks: usize, payload: usize) -> RunResult {
    let sched = collective::cached(alg, ranks, payload);
    let messages = sched.total_messages() as u64;
    telemetry::install();
    let spec = tiny2x2();
    let mut c = Cluster::with_fabric(
        &spec,
        FabricPreset::Switch.spec(ranks).build_for(ranks),
        Governor::Userspace(spec.base_freq),
        UncorePolicy::Fixed(spec.uncore_range.1),
        Placement {
            comm_thread: BindingPolicy::NearNic,
            data: BindingPolicy::NearNic,
        },
    );
    let wall = Instant::now();
    let elapsed = collective::run(&mut c, &sched, 100, 0x8000).expect("allreduce completes");
    let wall_s = wall.elapsed().as_secs_f64();
    drop(c);
    let j = telemetry::take().expect("recorder installed");
    RunResult {
        wall_s,
        events: j.counters["engine.events"],
        flow_events: messages,
        sim_end: elapsed,
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let sizes: Vec<usize> = std::env::var("SCALING_NODES")
        .unwrap_or_else(|_| "64,256,1024".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let reps = env_u64("SCALING_REPS", 5) as usize;
    let rounds = env_u64("SCALING_ROUNDS", 4);
    let floor = std::env::var("SCALING_FLOOR_EVENTS_PER_SEC")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());

    println!(
        "engine scaling: {} reps x {} rounds, sizes {:?}",
        reps, rounds, sizes
    );
    println!(
        "{:>6} {:>10} {:>8} {:>12} {:>12} {:>8}",
        "nodes", "events", "wall_s", "events/s", "flows/s", "spread"
    );

    let mut out = String::from("{\n");
    out.push_str(
        "  \"benchmark\": \"engine scaling: events/sec and flows/sec vs synthetic node count\",\n",
    );
    out.push_str(&format!(
        "  \"config\": {{ \"reps\": {}, \"rounds\": {}, \"poll_ps\": {}, \"watchdog_ps\": {} }},\n",
        reps, rounds, POLL_PS, WATCHDOG_PS
    ));
    out.push_str("  \"sizes\": [\n");

    let mut failed = false;
    for (si, &nodes) in sizes.iter().enumerate() {
        let runs: Vec<RunResult> = (0..reps).map(|_| run_scenario(nodes, rounds)).collect();
        let mut ev_rates: Vec<f64> = runs
            .iter()
            .map(|r| r.events as f64 / r.wall_s.max(1e-9))
            .collect();
        ev_rates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut fl_rates: Vec<f64> = runs
            .iter()
            .map(|r| r.flow_events as f64 / r.wall_s.max(1e-9))
            .collect();
        fl_rates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let med_ev = quantile(&ev_rates, 0.5);
        let med_fl = quantile(&fl_rates, 0.5);
        let spread_pct =
            100.0 * (ev_rates[ev_rates.len() - 1] - ev_rates[0]) / med_ev.max(1e-9);

        println!(
            "{:>6} {:>10} {:>8.3} {:>12.0} {:>12.0} {:>7.1}%",
            nodes, runs[0].events, runs[0].wall_s, med_ev, med_fl, spread_pct
        );

        let rep_json: Vec<String> = runs
            .iter()
            .map(|r| {
                format!(
                    "{{ \"wall_s\": {:.6}, \"events\": {}, \"flow_events\": {}, \"sim_end_s\": {:.6} }}",
                    r.wall_s,
                    r.events,
                    r.flow_events,
                    r.sim_end.0 as f64 * 1e-12
                )
            })
            .collect();
        out.push_str(&format!(
            "    {{ \"nodes\": {}, \"median_events_per_s\": {:.0}, \"median_flows_per_s\": {:.0}, \"spread_pct\": {:.1}, \"reps\": [{}] }}{}\n",
            nodes,
            med_ev,
            med_fl,
            spread_pct,
            rep_json.join(", "),
            if si + 1 == sizes.len() { "" } else { "," }
        ));

        if let Some(f) = floor {
            if med_ev < f {
                eprintln!(
                    "FAIL: {} nodes: median {:.0} events/s below floor {:.0}",
                    nodes, med_ev, f
                );
                failed = true;
            }
        }
    }
    out.push_str("  ],\n");

    // Full-stack column: ring allreduce over the switch fabric.
    let ranks: Vec<usize> = std::env::var("SCALING_ALLREDUCE_RANKS")
        .unwrap_or_else(|_| "8,64,256,1024".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let ar_floor = std::env::var("SCALING_ALLREDUCE_FLOOR_EVENTS_PER_SEC")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());
    let ar_max_wall = std::env::var("SCALING_ALLREDUCE_MAX_WALL_S")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());

    println!(
        "ring allreduce scaling: {} reps x {} B payload, ranks {:?}",
        reps, ALLREDUCE_PAYLOAD, ranks
    );
    println!(
        "{:>6} {:>10} {:>8} {:>12} {:>10} {:>8}",
        "ranks", "events", "wall_s", "events/s", "messages", "spread"
    );
    out.push_str("  \"allreduce\": [\n");
    for (ri, &n) in ranks.iter().enumerate() {
        let runs: Vec<RunResult> = (0..reps)
            .map(|_| run_collective(Algorithm::RingAllreduce, n, ALLREDUCE_PAYLOAD))
            .collect();
        let mut ev_rates: Vec<f64> = runs
            .iter()
            .map(|r| r.events as f64 / r.wall_s.max(1e-9))
            .collect();
        ev_rates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let med_ev = quantile(&ev_rates, 0.5);
        let spread_pct =
            100.0 * (ev_rates[ev_rates.len() - 1] - ev_rates[0]) / med_ev.max(1e-9);

        println!(
            "{:>6} {:>10} {:>8.3} {:>12.0} {:>10} {:>7.1}%",
            n, runs[0].events, runs[0].wall_s, med_ev, runs[0].flow_events, spread_pct
        );

        let rep_json: Vec<String> = runs
            .iter()
            .map(|r| {
                format!(
                    "{{ \"wall_s\": {:.6}, \"events\": {}, \"collective_us\": {:.3} }}",
                    r.wall_s,
                    r.events,
                    r.sim_end.0 as f64 * 1e-6
                )
            })
            .collect();
        out.push_str(&format!(
            "    {{ \"ranks\": {}, \"payload\": {}, \"messages\": {}, \"median_events_per_s\": {:.0}, \"spread_pct\": {:.1}, \"reps\": [{}] }}{}\n",
            n,
            ALLREDUCE_PAYLOAD,
            runs[0].flow_events,
            med_ev,
            spread_pct,
            rep_json.join(", "),
            if ri + 1 == ranks.len() { "" } else { "," }
        ));

        if let Some(f) = ar_floor {
            if med_ev < f {
                eprintln!(
                    "FAIL: {} ranks: median {:.0} allreduce events/s below floor {:.0}",
                    n, med_ev, f
                );
                failed = true;
            }
        }
        if let Some(limit) = ar_max_wall {
            let mut walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
            walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let med_wall = quantile(&walls, 0.5);
            if med_wall > limit {
                eprintln!(
                    "FAIL: {} ranks: median allreduce wall {:.1} s over limit {:.1} s",
                    n, med_wall, limit
                );
                failed = true;
            }
        }
    }
    out.push_str("  ],\n");

    // Other collective shapes: binomial bcast and pairwise alltoall rows.
    // Payloads match the collective_contention experiment (32 KiB tree-ish
    // control payloads, 128 KiB per-pair alltoall).
    let rows: Vec<(Algorithm, &str, usize, usize)> = std::env::var("SCALING_COLLECTIVE_ROWS")
        .unwrap_or_else(|_| "bcast:256,alltoall:64".into())
        .split(',')
        .filter_map(|row| {
            let (alg, ranks) = row.trim().split_once(':')?;
            let ranks: usize = ranks.parse().ok()?;
            match alg {
                "bcast" => Some((Algorithm::BinomialBcast, "bcast", ranks, 32 << 10)),
                "alltoall" => Some((Algorithm::PairwiseAlltoall, "alltoall", ranks, 128 << 10)),
                _ => None,
            }
        })
        .collect();

    println!("collective scaling: {} reps, rows {:?}", reps, rows.iter().map(|r| (r.1, r.2)).collect::<Vec<_>>());
    println!(
        "{:>10} {:>6} {:>10} {:>8} {:>12} {:>10} {:>8}",
        "alg", "ranks", "events", "wall_s", "events/s", "messages", "spread"
    );
    out.push_str("  \"collectives\": [\n");
    for (ri, &(alg, name, n, payload)) in rows.iter().enumerate() {
        let runs: Vec<RunResult> = (0..reps).map(|_| run_collective(alg, n, payload)).collect();
        let mut ev_rates: Vec<f64> = runs
            .iter()
            .map(|r| r.events as f64 / r.wall_s.max(1e-9))
            .collect();
        ev_rates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let med_ev = quantile(&ev_rates, 0.5);
        let spread_pct =
            100.0 * (ev_rates[ev_rates.len() - 1] - ev_rates[0]) / med_ev.max(1e-9);

        println!(
            "{:>10} {:>6} {:>10} {:>8.3} {:>12.0} {:>10} {:>7.1}%",
            name, n, runs[0].events, runs[0].wall_s, med_ev, runs[0].flow_events, spread_pct
        );

        let rep_json: Vec<String> = runs
            .iter()
            .map(|r| {
                format!(
                    "{{ \"wall_s\": {:.6}, \"events\": {}, \"collective_us\": {:.3} }}",
                    r.wall_s,
                    r.events,
                    r.sim_end.0 as f64 * 1e-6
                )
            })
            .collect();
        out.push_str(&format!(
            "    {{ \"alg\": \"{}\", \"ranks\": {}, \"payload\": {}, \"messages\": {}, \"median_events_per_s\": {:.0}, \"spread_pct\": {:.1}, \"reps\": [{}] }}{}\n",
            name,
            n,
            payload,
            runs[0].flow_events,
            med_ev,
            spread_pct,
            rep_json.join(", "),
            if ri + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");

    if let Ok(path) = std::env::var("SCALING_OUT") {
        std::fs::write(&path, &out).expect("write SCALING_OUT");
        println!("wrote {}", path);
    }
    if failed {
        std::process::exit(1);
    }
}
