#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer numbers for four
workloads, each with its output checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seconds S       # every workload once
    python3 perfbench/run.py --steady K --workload NAME|all    # K seeds, spread vs bound

Workloads (see perfbench/README.md for why each was chosen):

    paper-full             repro --all then repro --ext, Full fidelity, --jobs 2
    allreduce-ring-256     256-rank ring allreduce through the library API
    fabric-contention-512  512-node shared-fabric synthetic on simcore::Engine
    advisor-queries        closed loop of repro predict / rank-placements

The benchmark builds `repro` and its own workloads binary (perfbench/workloads) from
source with cargo, into $CARGO_TARGET_DIR (default .bench_build). With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics instead. The lines
before it are the human report: provenance, digest, and every metric's
median, quartiles and sample count.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perfstats  # noqa: E402

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS_MANIFEST = BENCH_DIR / "workloads" / "Cargo.toml"
CHILD_LIMIT_S = 150

WORKLOADS = ("paper-full", "allreduce-ring-256", "fabric-contention-512", "advisor-queries")

# Set-up is repeated within a run and reported as the median: before every
# operation on the library workloads (the workloads binary rebuilds its cluster or
# engine anyway), LIST_REPS times before every paper-full pass, and
# HARVESTS cold harvests up front on advisor-queries.
LIST_REPS = 3
HARVESTS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
]

EXPERIMENTS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "table1", "fig6", "fig7", "fig8", "fig9", "fig10",
    "cross_machine", "ablations", "overlap", "faulted_pingpong", "collective_contention",
    "collective_dvfs",
)
SPAN_NAMES = (
    "op", "repro.all", "repro.ext", "topology.cluster_build", "mpi.schedule_build",
    "mpi.collective_run", "engine.build", "engine.run", "bench.callback", "predict.harvest",
    "predict.restore", "predict.train", "predict.query", "predict.rank", "store.put", "store.get",
)
# Telemetry counters reported per operation, under their journal names.
COUNTERS = (
    ("engine.events", "count"), ("engine.queue.inserts", "count"),
    ("engine.queue.cancels", "count"), ("fluid.reallocs", "count"),
    ("fluid.parallel_components", "count"), ("net.route.intern_hit", "count"),
    ("net.pio.bytes", "bytes"), ("net.dma.bytes", "bytes"), ("net.retrans", "count"),
    ("freq.transitions", "count"), ("mem.channel.bytes", "bytes"), ("mem.stall_ps", "ps"),
    ("rt.dispatches", "count"),
)
PER_LAYER = (
    [("campaign.busy_s." + e, "s") for e in EXPERIMENTS]
    + [("campaign.utilisation", "ratio"), ("campaign.baseline_hit_ratio", "ratio"),
       ("campaign.points", "count"),
       ("store.put_ms", "ms"), ("store.get_ms", "ms"), ("store.hits", "count"),
       ("store.misses", "count"), ("store.persisted", "count"), ("store.quarantined", "count"),
       ("engine.events_per_instant", "ratio"), ("engine.self_s", "s"),
       ("fluid.flows_per_realloc", "ratio"), ("fluid.waterfill_ratio", "ratio"),
       ("mpi.probes_per_match", "ratio"), ("mpi.schedule_cache.misses", "count"),
       ("mpi.schedule_build_s", "s"), ("mpi.collective_run_s", "s"),
       ("net.reg_hit_ratio", "ratio"), ("topology.cluster_build_s", "s"),
       ("predict.harvest_s", "s"), ("predict.restore_s", "s"), ("predict.train_s", "s"),
       ("predict.query_ms", "ms"), ("predict.rank_ms", "ms"),
       ("telemetry.overhead_frac", "ratio"), ("telemetry.records", "count")]
    + list(COUNTERS)
    + [("self_s." + n, "s") for n in SPAN_NAMES]
)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class Fatal(Exception):
    """The benchmark cannot produce a result (missing source, failed build,
    a crashed workloads binary)."""


# ------------------------------------------------------------- processes


class Proc:
    """One finished child process: exit code, output, host wall time and
    peak resident memory."""

    def __init__(self, rc, out, err, wall_s, rss_kb):
        self.rc, self.out, self.err, self.wall_s, self.rss_kb = rc, out, err, wall_s, rss_kb


def run_proc(argv, work, tag):
    """Run ``argv`` from the checkout root with its output in files under
    ``work``; reap it with wait4 so its own peak RSS is known. A child that
    outlives CHILD_LIMIT_S is killed."""
    out_path, err_path = work / (tag + ".out"), work / (tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_LIMIT_S, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_text(errors="replace")
    err_text = err_path.read_text(errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Proc(p.returncode, text, err_text, wall_s, ru.ru_maxrss)


def cargo_env():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else ROOT / target)
    return env


def build():
    """Build `repro` and the workloads binary; return their paths."""
    for need in ("Cargo.toml", "crates/bench/src/bin/repro.rs", "crates/simcore/Cargo.toml"):
        if not (ROOT / need).is_file():
            raise Fatal("%s not found: run from the root of a full checkout" % need)
    env = cargo_env()
    for argv in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "bench", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(WORKLOADS_MANIFEST)],
    ):
        r = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise Fatal("build failed: %s" % " ".join(argv))
    release = Path(env["CARGO_TARGET_DIR"]) / "release"
    return release / "repro", release / "perfbench-workloads"


def last_json(proc, what):
    if proc.rc != 0:
        raise Fatal("%s exited %d: %s" % (what, proc.rc, proc.err.strip()[-400:]))
    try:
        return json.loads(proc.out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise Fatal("%s printed no JSON result" % what)


# ---------------------------------------------------------------- results


class Result:
    """What one workload run measured."""

    def __init__(self):
        self.setup_s = []  # set-up samples, seconds
        self.op_s = []  # host seconds per operation
        self.attempted = 0
        self.failed = 0
        self.problems = []  # output checks that failed
        self.rss_kb = 0
        self.digest = ""
        self.named = {}  # the workload's own metrics: name -> (samples or value, unit)
        self.layers = {}  # per-layer metric values
        self.spans = []

    def check(self, ok, problem):
        if not ok:
            self.problems.append(problem)
        return ok


def deadline(seconds):
    return time.perf_counter() + seconds


# ------------------------------------------------------------- paper-full

SUMMARY_RE = re.compile(r"== summary: (\d+)/(\d+) qualitative checks passed")


def repro_pass(repro, work, i, trace, rec, res):
    """One campaign pass: `repro --all` then `repro --ext` into one fresh
    store. Returns (wall_s, figure JSON bytes, timings of both or None)."""
    store = work / ("store%d" % i)
    wall = 0.0
    blobs = []
    timings = []
    for mode in ("all", "ext"):
        out_json = work / ("%s%d.json" % (mode, i))
        argv = [str(repro), "--" + mode, "--jobs", "2", "--store", str(store), "--resume",
                "--json", str(out_json)]
        if trace:
            tim = work / ("%s%d.timings.json" % (mode, i))
            argv += ["--timings", str(tim)]
            if i % 2 == 0:
                argv += ["--trace", str(work / ("%s%d.trace.json" % (mode, i)))]
        sid = rec.begin("repro." + mode)
        p = run_proc(argv, work, "%s%d" % (mode, i))
        rec.end(sid)
        wall += p.wall_s
        res.rss_kb = max(res.rss_kb, p.rss_kb)
        m = SUMMARY_RE.search(p.out)
        try:
            figs = json.loads(out_json.read_bytes())
        except (OSError, ValueError):
            figs = None
        if figs is None or m is None or p.rc not in (0, 1):
            res.check(False, "repro --%s pass %d: exit %d, no summary or JSON" % (mode, i, p.rc))
            res.attempted += 1
            res.failed += 1
            continue
        checks = [c for f in figs for c in f["checks"]]
        bad = [c for c in checks if not c["pass"]]
        res.attempted += len(checks)
        res.failed += len(bad)
        res.named.setdefault("failing_checks", set()).update(c["name"] for c in bad)
        res.check((int(m.group(1)), int(m.group(2))) == (len(checks) - len(bad), len(checks)),
                  "repro --%s pass %d: summary %s disagrees with the JSON" % (mode, i, m.group(0)))
        res.check(p.rc == (1 if bad else 0),
                  "repro --%s pass %d: exit %d with %d failed checks" % (mode, i, p.rc, len(bad)))
        blobs.append(out_json.read_bytes())
        if trace:
            timings.append(json.loads((work / ("%s%d.timings.json" % (mode, i))).read_text()))
    shutil.rmtree(store, ignore_errors=True)
    for f in work.glob("*%d.*json" % i):
        f.unlink()
    return wall, b"".join(blobs), timings


def paper_full(bins, args, work, res, rec):
    repro, _ = bins
    digests = []
    traced_walls, plain_walls, timings = [], [], []
    end = deadline(args.seconds)
    i = 0
    while i == 0 or time.perf_counter() < end:
        # Set-up: a fresh `repro` process up to its registry listing (binary
        # load and every experiment's sweep plan); each pass then opens its
        # own fresh store.
        for k in range(LIST_REPS):
            p = run_proc([str(repro), "--list"], work, "list")
            res.check(p.rc == 0 and "collective_dvfs" in p.out, "repro --list failed")
            res.setup_s.append(p.wall_s)
        rec.op = i
        sid = rec.begin("op")
        wall, blob, tim = repro_pass(repro, work, i, args.trace, rec, res)
        rec.end(sid)
        res.op_s.append(wall)
        digests.append(hashlib.sha256(blob).hexdigest())
        if not res.check(digests[-1] == digests[0], "pass %d figure JSON differs from pass 0" % i):
            res.failed += 1
        (traced_walls if i % 2 == 0 else plain_walls).append(wall)
        if args.trace and i % 2 == 0 and len(tim) == 2:
            timings.append(tim)
        i += 1
    res.digest = digests[0]
    failing = sorted(res.named.pop("failing_checks", ()))
    res.named["campaign_s"] = (res.op_s, "s")
    res.named["failing_checks"] = (failing, "names")
    if args.trace:
        paper_layers(res, timings, traced_walls, plain_walls)


def paper_layers(res, timings, traced_walls, plain_walls):
    """Per-layer numbers of the traced passes, from `repro --timings`
    (counters need `--trace`, so only every other pass records them)."""
    if not timings:
        return
    L = res.layers
    per_pass = []
    for all_t, ext_t in timings:
        both = (all_t, ext_t)
        exps = {e["name"]: e for t in both for e in t["experiments"]}
        counters = {}
        for t in both:
            for k, v in t["telemetry"].get("counters", {}).items():
                counters[k] = counters.get(k, 0) + v
        busy = sum(e["busy_s"] for e in exps.values())
        calls = sum(t["telemetry"]["baseline_calls"] for t in both)
        computed = sum(t["telemetry"]["baseline_computed"] for t in both)
        row = {"campaign.busy_s." + n: e["busy_s"] for n, e in exps.items()}
        row.update({
            "campaign.utilisation": busy / sum(t["wall_s"] for t in both),
            "campaign.baseline_hit_ratio": (calls - computed) / calls if calls else 0.0,
            "campaign.points": sum(e["points"] for e in exps.values()),
            "mpi.schedule_cache.misses": sum(t["collective"]["schedule_cache_misses"] for t in both),
            "telemetry.records": sum(t["telemetry"].get("records", 0) for t in both),
        })
        for k in ("hits", "misses", "persisted", "quarantined"):
            row["store." + k] = sum(t["store"][k] for t in both)
        row.update(counter_layers(counters, 1))
        per_pass.append(row)
    for name in per_pass[0]:
        L[name] = perfstats.median([r[name] for r in per_pass])
    if plain_walls:
        L["telemetry.overhead_frac"] = perfstats.median(traced_walls) / perfstats.median(plain_walls) - 1


def counter_layers(sums, ops):
    """Per-operation counters and the ratios derived from them."""
    c = lambda k: sums.get(k, 0)  # noqa: E731
    per_op = lambda v: v / ops if ops else 0.0  # noqa: E731
    out = {name: per_op(c(name)) for name, _ in COUNTERS}
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    out["engine.events_per_instant"] = ratio(c("engine.events"), c("engine.queue.batch_instants"))
    out["fluid.flows_per_realloc"] = ratio(c("fluid.realloc_flows_visited"), c("fluid.reallocs"))
    out["fluid.waterfill_ratio"] = ratio(c("fluid.waterfill"), c("fluid.components"))
    out["mpi.probes_per_match"] = ratio(c("mpi.match.probes"), c("mpi.match.bin_hit"))
    out["net.reg_hit_ratio"] = ratio(c("net.reg_hit"), c("net.reg_hit") + c("net.reg_miss"))
    return out


# ---------------------------------------------------- library workloads


def library_run(binary, sub, args, work, res):
    """Run the workloads binary's measured loop; collect operations, set-up samples,
    checks, counters and spans."""
    spans_path = work / "spans.txt"
    argv = [str(binary), sub, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "1" if args.trace else "0"]
    if args.trace:
        argv += ["--spans", str(spans_path)]
    p = run_proc(argv, work, "run")
    out = last_json(p, "perfbench-workloads " + sub)
    res.rss_kb = p.rss_kb
    res.setup_s = out["setup_s"]
    ops = out["ops"]
    res.op_s = [o["wall_s"] for o in ops]
    res.attempted = len(ops)
    res.failed = sum(not o["ok"] for o in ops)
    res.check(res.failed == 0, "%d of %d operations failed their check" % (res.failed, len(ops)))
    res.digest = out["digest"]
    res.named["sim_events_per_s"] = ([o["events"] / o["wall_s"] for o in ops], "1/s")
    res.named["sim_end_ps"] = (ops[0]["sim_ps"], "ps")
    res.named["events_per_op"] = (ops[0]["events"], "count")
    if args.trace:
        res.spans = perfstats.parse_spans(spans_path.read_text().splitlines())
        recorded = [o for o in ops if o["recorded"]]
        plain = [o for o in ops if not o["recorded"]]
        res.layers.update(counter_layers(out["counters"], len(recorded)))
        res.layers["telemetry.records"] = out["counters"].get("telemetry.records", 0) / max(len(recorded), 1)
        res.layers["mpi.schedule_cache.misses"] = out["schedule_cache_misses"]
        if recorded and plain:
            res.layers["telemetry.overhead_frac"] = (
                perfstats.median([o["wall_s"] for o in recorded])
                / perfstats.median([o["wall_s"] for o in plain]) - 1)


def allreduce_ring(bins, args, work, res, rec):
    library_run(bins[1], "allreduce", args, work, res)


def fabric_contention(bins, args, work, res, rec):
    library_run(bins[1], "contention", args, work, res)


# ------------------------------------------------------ advisor-queries

RESTORED_RE = re.compile(r"320 point\(s\) \(320 restored from store\)")


def answer_lines(text):
    return [l for l in text.splitlines() if "predicted" in l]


def advisor_queries(bins, args, work, res, rec):
    repro, lib = bins
    if args.trace:
        advisor_layers(lib, args, work, res)
        return
    grid = last_json(run_proc([str(lib), "grid"], work, "grid"), "perfbench-workloads grid")
    store = None
    for k in range(HARVESTS):
        if store:
            shutil.rmtree(store)
        store = work / ("store%d" % k)
        h = last_json(run_proc([str(lib), "harvest", "--store", str(store)], work, "harvest%d" % k),
                      "perfbench-workloads harvest")
        res.setup_s.append(h["setup_s"])
        res.check(h["pairs"] == len(grid) and h["store"]["persisted"] == len(grid),
                  "cold harvest stored %d of %d pairs" % (h["store"]["persisted"], len(grid)))
    # Closed loop, one client: the next query is sent when the answer is in.
    # Every eighth query repeats an earlier one, whose answer must not change.
    rng = random.Random(args.seed)
    asked = []
    answers = {}
    digest = hashlib.sha256()
    end = deadline(args.seconds)
    i = 0
    while i == 0 or time.perf_counter() < end:
        if i % 8 == 7:
            q = rng.choice(asked)
        else:
            preset, family, cores, placement, metric = rng.choice(grid)
            q = ("rank-placements" if i % 4 == 3 else "predict", preset, family, cores, placement, metric)
            asked.append(q)
        mode, preset, family, cores, placement, metric = q
        argv = [str(repro), mode, "--preset", preset, "--workload", family, "--cores", str(cores),
                "--metric", metric, "--quick", "--jobs", "2", "--store", str(store), "--resume"]
        if mode == "predict":
            argv += ["--placement", str(placement)]
        p = run_proc(argv, work, "query")
        res.op_s.append(p.wall_s)
        res.rss_kb = max(res.rss_kb, p.rss_kb)
        lines = answer_lines(p.out)
        ok = res.check(p.rc == 0 and bool(lines), "query %d (%s) failed: exit %d" % (i, " ".join(map(str, q)), p.rc))
        ok &= res.check(bool(RESTORED_RE.search(p.out)), "query %d did not restore 320/320 pairs" % i)
        ok &= res.check(answers.setdefault(q, lines) == lines, "repeated query %d answered differently" % i)
        digest.update("\n".join(lines).encode())
        res.attempted += 1
        res.failed += not ok
        i += 1
    quarantined = list(store.glob("*quarantined*"))
    res.check(not quarantined, "%d store entries quarantined" % len(quarantined))
    res.digest = digest.hexdigest()
    ms = [s * 1000 for s in res.op_s]
    tail, pct = perfstats.tail(ms)
    res.named["query_ms_p50"] = (ms, "ms")
    res.named["query_ms_tail"] = (tail, "ms at p%d" % pct)


def advisor_layers(lib, args, work, res):
    """Traced run: the workloads binary's probe of the predict and store layers (it
    does its own cold harvest, so the traced run skips the set-up ones)."""
    spans_path = work / "spans.txt"
    argv = [str(lib), "advisor", "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "1", "--store", str(work / "probe"), "--scratch", str(work / "scratch"),
            "--spans", str(spans_path)]
    out = last_json(run_proc(argv, work, "probe"), "perfbench-workloads advisor")
    ops = out["ops"]
    res.op_s = [o["wall_s"] for o in ops]
    res.attempted = len(ops) + 1
    res.failed = sum(not o["ok"] for o in ops) + (not out["store_ok"])
    res.check(res.failed == 0, "advisor probe: %d failed operations or store checks" % res.failed)
    res.digest = out["digest"]
    res.spans = perfstats.parse_spans(spans_path.read_text().splitlines())
    L = res.layers
    for k, v in out["store"].items():
        L["store." + k] = v
    # Queries are operations i % 4 != 3; the probe records telemetry on
    # the even ones, so i % 4 == 1 are the unrecorded queries.
    recorded = [o["wall_s"] for o in ops if o["recorded"]]
    plain = [o["wall_s"] for i, o in enumerate(ops) if i % 4 == 1]
    if recorded and plain:
        L["telemetry.overhead_frac"] = perfstats.median(recorded) / perfstats.median(plain) - 1
    L["telemetry.records"] = out["counters"].get("telemetry.records", 0)


# ---------------------------------------------------------------- layers


def span_layers(res):
    """Layer timings and self times from the benchmark-side spans."""
    spans = res.spans
    if not spans:
        return
    L = res.layers

    def med(name, scale=1.0):
        xs = perfstats.durations(spans, name)
        return perfstats.median(xs) * scale if xs else 0.0

    L["topology.cluster_build_s"] = med("topology.cluster_build")
    L["mpi.schedule_build_s"] = med("mpi.schedule_build")
    L["mpi.collective_run_s"] = med("mpi.collective_run")
    L["predict.harvest_s"] = med("predict.harvest")
    L["predict.restore_s"] = med("predict.restore")
    L["predict.train_s"] = med("predict.train")
    L["predict.query_ms"] = med("predict.query", 1000)
    L["predict.rank_ms"] = med("predict.rank", 1000)
    L["store.put_ms"] = med("store.put", 1000)
    L["store.get_ms"] = med("store.get", 1000)
    ops = max(1, sum(1 for s in spans if s["name"] == "op"))
    selfs = perfstats.self_times(spans)
    for name in SPAN_NAMES:
        L["self_s." + name] = selfs.get(name, 0.0) / ops
    runs = max(1, sum(1 for s in spans if s["name"] == "engine.run"))
    L["engine.self_s"] = selfs.get("engine.run", 0.0) / runs


# ------------------------------------------------------------ provenance


def git(*argv):
    try:
        r = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=20)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """sha256 over the program and benchmark sources, so a result names
    the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for base in (ROOT / "crates", BENCH_DIR):
        files += [p for p in base.rglob("*") if p.suffix in (".rs", ".toml", ".lock", ".py")]
    for p in sorted(files):
        if p.is_file() and "target" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def provenance(args, res):
    rev = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = git("status", "--porcelain", "--untracked-files=no") if rev else None
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_rev": rev or "unavailable (not a git checkout)",
        "git_dirty": bool(dirty) if rev else None,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": rustc,
        "build_profile": "release",
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "runs": len(res.op_s),
    }


# ---------------------------------------------------------------- output


def end_to_end(res):
    tail, pct = perfstats.tail(res.op_s)
    values = {
        "setup_s": perfstats.median(res.setup_s),
        "peak_rss_mb": res.rss_kb / 1024,
        "ok_frac": (res.attempted - res.failed) / res.attempted,
        "op_ms_p50": perfstats.median(res.op_s) * 1000,
        "op_ms_tail": tail * 1000,
    }
    return values, pct


def report(args, res, metrics, tail_pct):
    """Human-readable lines before the result line."""
    print("perfbench %s seed=%d seconds=%s trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance: " + json.dumps(provenance(args, res), sort_keys=True))
    print("digest: %s" % res.digest)
    print("attempted %d, failed %d, failed_frac %.6f" % (
        res.attempted, res.failed, res.failed / res.attempted))
    for p in res.problems:
        print("check failed: %s" % p)
    samples = {"setup_s": res.setup_s, "op_ms": [s * 1000 for s in res.op_s]}
    for name, (xs, unit) in res.named.items():
        if isinstance(xs, list) and xs and all(isinstance(x, (int, float)) for x in xs):
            samples[name] = xs
        else:
            print("%-26s %s %s" % (name, xs, unit))
    print("%-26s %14s %14s %14s %5s" % ("samples", "median", "q1", "q3", "n"))
    for name, xs in samples.items():
        if not xs:
            continue
        s = perfstats.summary(xs)
        print("%-26s %14.6g %14.6g %14.6g %5d" % (name, s["median"], s["q1"], s["q3"], s["n"]))
    if not args.trace:
        print("op_ms_tail is p%d (%d samples)" % (tail_pct, len(res.op_s)))
    for name, m in metrics.items():
        print("%-34s %16.6g %s" % (name, m["value"], m["unit"]))


def declared(kind):
    """The metric list BENCHMARK.json declares, when it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())[kind]


def run_workload(args):
    bins = build()
    work = ROOT / ".bench_work" / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    res = Result()
    rec = perfstats.Recorder(bool(args.trace), time.perf_counter)
    try:
        RUNNERS[args.workload](bins, args, work, res, rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    tail_pct = 50
    if args.trace:
        res.spans = res.spans or rec.spans
        span_layers(res)
        metrics = {n: {"value": float(res.layers.get(n, 0.0)), "unit": u} for n, u in PER_LAYER}
        kind = "per_layer"
    else:
        values, tail_pct = end_to_end(res)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        kind = "end_to_end"
    report(args, res, metrics, tail_pct)
    schema = declared(kind)
    if schema is not None:
        problems = perfstats.check_metrics(metrics, schema)
        if problems:
            raise Fatal("output does not match BENCHMARK.json: " + "; ".join(problems))
    print(json.dumps({
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))


RUNNERS = {
    "paper-full": paper_full,
    "allreduce-ring-256": allreduce_ring,
    "fabric-contention-512": fabric_contention,
    "advisor-queries": advisor_queries,
}


# ------------------------------------------------------------- steadiness


def steady(args):
    """Run each workload K times on consecutive seeds and print, per
    end-to-end metric, the interquartile spread against its bound."""
    bounds = {m["name"]: m["bound"] for m in declared("end_to_end") or []}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_within = True
    for w in names:
        values = {}
        for k in range(args.steady):
            seed = args.seed + k
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0"]
            r = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if r.returncode != 0:
                raise Fatal("%s seed %d exited %d:\n%s" % (w, seed, r.returncode, r.stderr[-2000:]))
            lines = r.stdout.strip().splitlines()
            if args.steady == 1:
                print("\n".join(lines[:-1]))
            line = json.loads(lines[-1])
            log("%s seed %d: %s" % (w, seed, json.dumps(
                {n: round(m["value"], 4) for n, m in line["metrics"].items()})))
            for n, m in line["metrics"].items():
                values.setdefault(n, []).append(m["value"])
        print("== %s: %d runs, seeds %d..%d" % (w, args.steady, args.seed, args.seed + args.steady - 1))
        print("%-14s %12s %12s %12s %8s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for n, xs in values.items():
            s = perfstats.summary(xs)
            sp = perfstats.spread(xs) if len(xs) > 1 else 0.0
            bound = bounds.get(n)
            if bound is None or len(xs) < 2:
                verdict = "-"
            elif n == "setup_s":
                verdict = "exempt"
            elif sp < bound / 3:
                verdict = "steady"
            elif sp <= bound:
                verdict = "within"
            else:
                verdict = "TOO WIDE"
                all_within = False
            print("%-14s %12.6g %12.6g %12.6g %8.4f %8s %8s" % (
                n, s["median"], s["q1"], s["q3"], sp, bound if bound is not None else "-", verdict))
    return 0 if all_within else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K",
                    help="run K seeds per workload and print each metric's spread against its bound")
    args = ap.parse_args()
    try:
        if args.steady or args.workload == "all":
            args.steady = args.steady or 1
            return steady(args)
        run_workload(args)
        return 0
    except Fatal as e:
        log("perfbench: error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
