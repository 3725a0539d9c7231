"""Statistics, span self times and the output schema of the benchmark.

Everything here is pure and tested by ``perfbench/tests/test_perfstats.py``.
"""

import math
import statistics

# Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def quartiles(xs):
    """(q1, median, q3) by ``statistics.quantiles(n=4)``, the default
    (exclusive) method; one sample is its own quartiles."""
    xs = list(xs)
    if not xs:
        raise ValueError("no samples")
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def median(xs):
    return statistics.median(xs)


def spread(xs):
    """Interquartile distance as a share of the median (0 for a zero
    median: there is nothing to scale by)."""
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else 0.0


def tail(xs, beyond=TAIL_BEYOND):
    """(value, percentile) of the highest whole percentile, at least the
    median, that still has ``beyond`` samples above it (nearest rank).
    With fewer than ``2 * beyond`` samples no such percentile reaches the
    median, and the median itself is reported at percentile 50."""
    s = sorted(xs)
    n = len(s)
    if not n:
        raise ValueError("no samples")
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return s[rank - 1], p
    return median(s), 50


def summary(xs):
    """Median, quartiles and sample count of one metric's samples."""
    q1, med, q3 = quartiles(xs)
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


# ---------------------------------------------------------------- spans

def parse_spans(lines):
    """Span records, one per line: id, parent (-1 for a root), operation id
    (-1 for set-up), name, start and end in ns, how many spans the record
    folds (1 for an ordinary span) and their summed busy ns."""
    spans = []
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        i, parent, op, name, start, end, count, busy = parts
        spans.append(
            dict(
                id=int(i),
                parent=int(parent),
                op=int(op),
                name=name,
                start=int(start),
                end=int(end),
                count=int(count),
                busy=int(busy),
            )
        )
    return spans


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time per span name, in seconds: each span's duration minus the
    part of it its children cover. A folded record (many leaves of one
    name) covers exactly its summed busy time, since recording nests
    strictly and its leaves are disjoint from their siblings."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        covered = union_length(
            (k["start"], k["end"]) for k in kids if k["count"] == 1
        ) + sum(k["busy"] for k in kids if k["count"] != 1)
        own = s["busy"] if s["count"] != 1 else s["end"] - s["start"]
        out[s["name"]] = out.get(s["name"], 0.0) + max(own - covered, 0) / 1e9
    return out


def durations(spans, name):
    """Durations in seconds of the ordinary spans called ``name``."""
    return [(s["end"] - s["start"]) / 1e9 for s in spans if s["name"] == name and s["count"] == 1]


class Recorder:
    """Spans recorded from Python, around calls the benchmark makes into
    the program (e.g. one ``repro`` process); same records as the workloads binary's."""

    def __init__(self, on, clock):
        self.on = on
        self.clock = clock
        self.t0 = clock()
        self.op = -1
        self.open = []
        self.spans = []

    def _ns(self):
        return int((self.clock() - self.t0) * 1e9)

    def begin(self, name):
        if not self.on:
            return None
        parent = self.open[-1] if self.open else -1
        span = dict(id=len(self.spans), parent=parent, op=self.op, name=name,
                    start=self._ns(), end=0, count=1, busy=0)
        self.spans.append(span)
        self.open.append(span["id"])
        return span["id"]

    def end(self, sid):
        if sid is None:
            return
        assert self.open.pop() == sid, "spans close in LIFO order"
        span = self.spans[sid]
        span["end"] = self._ns()
        span["busy"] = span["end"] - span["start"]


# --------------------------------------------------------------- schema


def check_metrics(metrics, declared):
    """Problems with a result's ``metrics`` against the declared list of
    ``{"name", "unit"}`` entries: every declared metric present with its
    unit and a finite number, nothing else."""
    problems = []
    want = {m["name"]: m["unit"] for m in declared}
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            problems.append("missing metric %s" % name)
            continue
        if set(got) != {"value", "unit"}:
            problems.append("%s: keys %s" % (name, sorted(got)))
        if got.get("unit") != unit:
            problems.append("%s: unit %r, declared %r" % (name, got.get("unit"), unit))
        v = got.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s: value %r is not a finite number" % (name, v))
    for name in metrics:
        if name not in want:
            problems.append("undeclared metric %s" % name)
    return problems
