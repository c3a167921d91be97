"""Benchmark of the treepatterns command line.

Runs one workload (or all four) as a closed loop in one process: a single
client starts each CLI op through ``treepatterns.cli.main(argv)`` only
after the previous op has returned, as a user at a terminal would.  Every
op's output is checked after the timed loop.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

    python3 bench/run.py --workload mc-cherry-n200 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1          # all four workloads

With ``--trace 1`` the same op sequence runs again, and each op is also
replayed through the public functions of every module, with a span
around each call; the run reports the per-layer metrics instead of the
end-to-end ones and writes its spans to ``bench/out/``.

The benchmark measures the package in ``src/`` of the checkout it sits in
and edits nothing there: every setting of the program stays at its
default.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import get_context
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "treepatterns").is_dir():
    sys.exit(f"bench: no package at {SRC / 'treepatterns'}; run from a "
             "checkout of the repository")
sys.path.insert(0, str(SRC))

from treepatterns import cli  # noqa: E402
from treepatterns.moments import (  # noqa: E402
    mean_pattern_count,
    moment_report,
    second_moment_pattern_count,
)
from treepatterns.montecarlo import estimate_pattern_stats, stream_for  # noqa: E402
from treepatterns.oracle import (  # noqa: E402
    iter_trees,
    verify_labelled_count,
    verify_moments,
)
from treepatterns.patterns import count_patterns, pattern_from_name  # noqa: E402
from treepatterns.trees import PruferSequence, prufer_decode  # noqa: E402

DEFAULT_SECONDS = 15
# The tail percentile needs ten ops beyond it, so a run never stops
# before this many ops, even when --seconds has passed.
MIN_OPS = 11
# A traced run needs one op plus a steady median for first_pool_extra_s.
MIN_TRACED_OPS = 3
SETUP_REPEATS = 9
CHECK_WORKERS = 2

END_TO_END = {
    "work_per_s": "work/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "montecarlo.rng_us_per_draw": "us",
    "montecarlo.draws": "count",
    "montecarlo.estimate_us_per_sample": "us",
    "montecarlo.fanout_efficiency": "ratio",
    "montecarlo.first_pool_extra_s": "s",
    "trees.decode_us_per_vertex": "us",
    "trees.iter_us_per_tree": "us",
    "patterns.count_us_per_vertex": "us",
    "patterns.occurrences": "count",
    "isomorphism.pattern_build_s": "s",
    "oracle.verify_us_per_tree": "us",
    "oracle.labelled_count_s": "s",
    "oracle.trees_visited": "count",
    "moments.mean_s": "s",
    "moments.second_moment_s": "s",
    "moments.normalise_s": "s",
    "moments.render_s": "s",
    "moments.render_failures": "count",
    "moments.max_digits": "count",
    "cli.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Counters that repeat exactly for a given seed; taken from the first
# cycle of the traced run so that they do not depend on machine speed.
COUNTERS = ("montecarlo.draws", "patterns.occurrences", "oracle.trees_visited",
            "moments.render_failures", "moments.max_digits")


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Op:
    """One CLI invocation and the work units it completes."""

    command: str
    pattern: str
    n: int
    work: int
    samples: int = 0
    seed: int = 0
    workers: int = 1

    @property
    def argv(self) -> list[str]:
        argv = [self.command, "--pattern", self.pattern, "--n", str(self.n)]
        if self.command == "mc":
            argv += ["--samples", str(self.samples), "--seed", str(self.seed),
                     "--workers", str(self.workers), "--json"]
        elif self.command == "verify":
            argv += ["--workers", str(self.workers)]
        else:
            argv += ["--json"]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    patterns: tuple[str, ...]
    # One cycle of ops; cycles repeat until the run's time is up, and a
    # run always ends on a whole cycle.
    cycle: Callable[[random.Random], list[Op]]


def _mc_cycle(pattern: str, n: int, samples: int, workers: int):
    def cycle(rng: random.Random) -> list[Op]:
        return [Op("mc", pattern, n, work=samples, samples=samples,
                   seed=rng.getrandbits(32), workers=workers)]
    return cycle


def _verify_cycle(rng: random.Random) -> list[Op]:
    return [Op("verify", pat, 7, work=7 ** 5) for pat in ("cherry", "star3")]


# One n from each band per cycle.  The bands straddle the 4300-digit
# str(int) limit: at the seed commit every op from n = 1951 on fails
# while rendering, which the run must show rather than hide.
LADDER_BANDS = ((201, 250), (451, 500), (651, 700), (1951, 2000), (4951, 5000))


def _ladder_cycle(rng: random.Random) -> list[Op]:
    return [Op("moments", pat, rng.randint(lo, hi), work=1)
            for lo, hi in LADDER_BANDS for pat in ("cherry", "star3")]


WORKLOADS = {w.name: w for w in (
    Workload("mc-cherry-n200", ("cherry",), _mc_cycle("cherry", 200, 500, 1)),
    Workload("mc-path4-n2000-w2", ("path4@end",),
             _mc_cycle("path4@end", 2000, 400, 2)),
    Workload("oracle-verify-n7", ("cherry", "star3"), _verify_cycle),
    Workload("exact-moments-ladder", ("cherry", "star3"), _ladder_cycle),
)}


def op_stream(workload: Workload, seed: int):
    """Cycles of ops made from the seed alone; the same seed gives the same
    ops."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        yield workload.cycle(rng)


# --------------------------------------------------------------- running ops

@dataclass
class Outcome:
    op: Op
    seconds: float
    rc: int | None          # None when the op raised
    stdout: str
    error: str = ""
    verdict: str = "unchecked"   # "ok", or why the op failed

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"


def run_op(op: Op) -> Outcome:
    """Run one CLI op in-process; a raising op is recorded, not propagated."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse usage errors exit instead of returning
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # any crash counts as a failed op; the run goes on
        return Outcome(op, time.perf_counter() - t0, None, "",
                       f"{type(exc).__name__}: {exc}")
    return Outcome(op, time.perf_counter() - t0, rc, out.getvalue(),
                   err.getvalue())


def run_cycles(workload: Workload, seed: int, seconds: float, min_ops: int,
               run_cycle: Callable[[list[Op]], list]) -> tuple[list, float]:
    """Run whole cycles until both the time and the op count are reached."""
    done: list = []
    cycles = op_stream(workload, seed)
    start = time.perf_counter()
    while True:
        done.extend(run_cycle(next(cycles)))
        if time.perf_counter() - start >= seconds and len(done) >= min_ops:
            return done, time.perf_counter() - start


# -------------------------------------------------------------------- checks

def big_int(digits: str) -> int:
    """int() of a decimal string of any length.

    The interpreter's str-to-int digit limit stays at its default, so long
    strings are converted in chunks below the limit.
    """
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def parse_rational(text: str) -> Fraction:
    num, den = text.split("/")
    sign = -1 if num.startswith("-") else 1
    return Fraction(sign * big_int(num.lstrip("-")), big_int(den))


def replay_tallies(pattern: str, n: int, samples: int, seed: int,
                   tracer=None) -> tuple[int, int, int]:
    """Tallies of an mc op through the public per-sample path:
    stream_for -> prufer_decode -> count_patterns."""
    tracer = tracer or NO_TRACE
    pat = pattern_from_name(pattern)
    hits = s1 = s2 = 0
    for k in range(samples):
        with tracer.span("montecarlo.randints"):
            seq = stream_for(seed, k).randints(n - 2, n)
        with tracer.span("trees.prufer_decode"):
            tree = prufer_decode(PruferSequence(n, tuple(seq)))
        with tracer.span("patterns.count_patterns"):
            c = count_patterns(tree, pat)
        if c:
            hits += 1
            s1 += c
            s2 += c * c
    return hits, s1, s2


def check_mc(op: Op, text: str, expected: tuple[int, int, int]) -> str:
    d = json.loads(text)
    if (d["n"], d["samples"], d["seed"]) != (op.n, op.samples, op.seed):
        return "mc: echoed arguments differ"
    got = (d["hits_ge1"], d["sum_count"], d["sum_count_sq"])
    if got != expected:
        return f"mc: tallies {got} != public path {expected}"
    return "ok"


def check_moments(op: Op, text: str) -> str:
    d = json.loads(text)
    if d["n"] != op.n:
        return "moments: echoed n differs"
    mean, second, var, bound = (parse_rational(d[k]) for k in (
        "mean", "second_moment", "variance", "chebyshev_zero_bound"))
    if var != second - mean * mean:
        return "moments: variance != second - mean^2"
    if bound != second / (mean * mean) - 1:
        return "moments: bound != second / mean^2 - 1"
    if op.n >= 1951 and abs(float(mean) / op.n / d["asymptotic_slope"] - 1) > 0.02:
        return "moments: mean/n further than 2% from asymptotic_slope"
    return "ok"


def check_verify(text: str) -> str:
    lines = text.strip().splitlines()
    if not lines or lines[-1] != "all checks passed":
        return "verify: last line is not 'all checks passed'"
    return "ok"


RAISED = "raised"


def verdict(outcome: Outcome, check: Callable[[], str]) -> str:
    """"ok", or why the op failed: it raised, exited nonzero or failed its
    output check."""
    if outcome.rc is None:
        return f"{RAISED}: {outcome.error}"
    if outcome.rc != 0:
        return f"exit code {outcome.rc}: {outcome.error.strip()}"
    try:
        return check()
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def check_outcomes(outcomes: list[Outcome]) -> None:
    """Set each outcome's verdict; mc replays run in a small process pool."""
    mc = [o for o in outcomes if o.op.command == "mc" and o.rc == 0]
    tallies = {}
    if mc:
        jobs = [(o.op.pattern, o.op.n, o.op.samples, o.op.seed) for o in mc]
        # fork, as the mc ops do: this process runs no threads of its own,
        # and spawn would start a resource-tracker process that outlives
        # the run.
        with ProcessPoolExecutor(CHECK_WORKERS,
                                 mp_context=get_context("fork")) as pool:
            tallies = dict(zip(map(id, mc), pool.map(replay_tallies, *zip(*jobs))))
    checks = {
        "mc": lambda o: check_mc(o.op, o.stdout, tallies[id(o)]),
        "moments": lambda o: check_moments(o.op, o.stdout),
        "verify": lambda o: check_verify(o.stdout),
    }
    for o in outcomes:
        o.verdict = verdict(o, lambda: checks[o.op.command](o))


# ------------------------------------------------------- end-to-end metrics

def tail_rank(count: int) -> int:
    """1-based rank of the highest percentile with ten ops beyond it."""
    return max(count - 10, 1)


def latency_keys(outcomes: list[Outcome], wall: float) -> list[float]:
    """Op times, sorted, where a failed op counts as taking the whole
    measured window, so that it sorts after every success."""
    return sorted(o.seconds if o.ok else wall for o in outcomes)


def setup_seconds(patterns: tuple[str, ...]) -> float:
    """Median wall time of a fresh interpreter that imports
    treepatterns.cli and builds the workload's patterns."""
    code = ("import sys, treepatterns.cli\n"
            "from treepatterns.patterns import pattern_from_name\n"
            "for name in sys.argv[1:]:\n"
            "    pattern_from_name(name)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    # The first start compiles bytecode, which users pay once per install.
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, *patterns], env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def peak_rss_mb(worker_count: int) -> float:
    """Peak RSS of this process plus its pool workers.

    Workers of one op are forked from this process and run equal shares,
    so the largest child's peak stands for each of them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker_count * child) / 1024


def untraced_run(workload: Workload, seed: int, seconds: float) -> dict:
    outcomes, wall = run_cycles(workload, seed, seconds, MIN_OPS,
                                lambda ops: [run_op(op) for op in ops])
    workers = max(o.op.workers for o in outcomes)
    rss = peak_rss_mb(workers if workers > 1 else 0)
    check_outcomes(outcomes)
    setup = setup_seconds(workload.patterns)

    keys = latency_keys(outcomes, wall)
    rank = tail_rank(len(keys))
    failed = [o for o in outcomes if not o.ok]
    values = {
        "work_per_s": sum(o.op.work for o in outcomes if o.ok) / wall,
        "op_p50_s": statistics.median(keys),
        "op_tail_s": keys[rank - 1],
        "success_rate": 1 - len(failed) / len(outcomes),
        "setup_s": setup,
        "peak_rss_mb": rss,
    }
    print(f"{workload.name}: {len(outcomes)} ops in {wall:.3f} s; tail is "
          f"p{100 * rank / len(keys):.1f} (op {rank} of {len(keys)}); "
          f"error_rate {len(failed) / len(outcomes):.4g}")
    for reason in sorted({o.verdict for o in failed}):
        count = sum(o.verdict == reason for o in failed)
        print(f"  {count} failed: {reason[:200]}")
    return {
        # A crash is a failed op but not a wrong answer; any output that
        # fails its check, or a nonzero exit, is a wrong answer.
        "correct": all(o.ok or o.verdict.startswith(RAISED) for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                    for k, v in values.items()},
    }


# ------------------------------------------------------------------ tracing

class Tracer:
    """Spans kept in memory as (name, start, end, parent index, op id)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> list[tuple[str, int, float]]:
        """(name, op, self time): duration minus the time child spans
        cover.  Children of one span never overlap (one thread)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(name, op, end - start - c) for (name, start, end, _, op), c
                in zip(self.spans, covered)]


class _Span:
    __slots__ = ("tracer", "name", "index", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tr = self.tracer
        self.parent = tr._open[-1] if tr._open else None
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._open.append(self.index)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tr = self.tracer
        tr._open.pop()
        tr.spans[self.index] = (self.name, self.start, end, self.parent, tr.op)


class _NoTrace:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NO_TRACE = _NoTrace()


def decimal_digits(x: int) -> int:
    """Decimal digits of |x|, from bit_length and integer comparisons only."""
    x = abs(x)
    d = max(1, int((x.bit_length() - 1) * 0.30102999566398120) + 1)
    if x >= 10 ** d:
        d += 1
    return d


def trace_mc(tr: Tracer, op: Op, outcome: Outcome, counts: dict) -> str:
    with tr.span("isomorphism.pattern_from_name"):
        pat = pattern_from_name(op.pattern)
    with tr.span("montecarlo.estimate_pattern_stats"):
        est = estimate_pattern_stats(pat, op.n, op.samples, op.seed, op.workers)
    results = [(est.hits_ge1, est.sum_count, est.sum_count_sq)]
    if op.workers > 1:
        with tr.span("montecarlo.estimate_pattern_stats@1"):
            one = estimate_pattern_stats(pat, op.n, op.samples, op.seed, 1)
        results.append((one.hits_ge1, one.sum_count, one.sum_count_sq))
    with tr.span("replay"):
        replay = replay_tallies(op.pattern, op.n, op.samples, op.seed, tr)
    counts["montecarlo.draws"] += op.samples * (op.n - 2)
    counts["patterns.occurrences"] += replay[1]
    if any(r != replay for r in results):
        return f"mc: library tallies {results} != public path {replay}"
    return verdict(outcome, lambda: check_mc(op, outcome.stdout, replay))


def trace_verify(tr: Tracer, op: Op, outcome: Outcome, counts: dict) -> str:
    with tr.span("isomorphism.pattern_from_name"):
        pat = pattern_from_name(op.pattern)
    with tr.span("oracle.verify_labelled_count"):
        lc = verify_labelled_count(pat)
    with tr.span("oracle.verify_moments"):
        mv = verify_moments(pat, op.n)
    with tr.span("trees.iter_trees"):
        trees = list(iter_trees(op.n))
    # One span for the whole sweep: a span per tree would make the
    # trace file larger than the work it describes.
    with tr.span("patterns.count_patterns"):
        occurrences = sum(count_patterns(t, pat) for t in trees)
    counts["oracle.trees_visited"] += len(trees)
    counts["patterns.occurrences"] += occurrences
    if not (lc.equal and mv.all_passed):
        return "verify: library checks failed"
    if Fraction(occurrences, len(trees)) != mean_pattern_count(pat, op.n):
        return "verify: exhaustive mean != mean_pattern_count"
    return verdict(outcome, lambda: check_verify(outcome.stdout))


def trace_moments(tr: Tracer, op: Op, outcome: Outcome, counts: dict) -> str:
    with tr.span("isomorphism.pattern_from_name"):
        pat = pattern_from_name(op.pattern)
    with tr.span("moments.mean_pattern_count"):
        mean = mean_pattern_count(pat, op.n)
    with tr.span("moments.second_moment_pattern_count"):
        second = second_moment_pattern_count(pat, op.n)
    with tr.span("moments.moment_report"):
        rep = moment_report(pat, op.n)
    try:
        with tr.span("moments.render"):
            json.dumps(rep.to_dict(), indent=2)
    except ValueError:
        counts["moments.render_failures"] += 1
    counts["moments.max_digits"] = max(
        [counts["moments.max_digits"]]
        + [decimal_digits(part) for q in (rep.mean, rep.second_moment,
                                         rep.variance, rep.chebyshev_zero_bound)
           for part in (q.numerator, q.denominator)])
    if (rep.mean, rep.second_moment) != (mean, second):
        return "moments: moment_report disagrees with the formula calls"
    return verdict(outcome, lambda: check_moments(op, outcome.stdout))


TRACE_OP = {"mc": trace_mc, "verify": trace_verify, "moments": trace_moments}

# The library calls behind each command; cli.overhead_s is the cli.main
# span minus these, on the same arguments.
LIBRARY_SPANS = {
    "mc": ("montecarlo.estimate_pattern_stats",),
    "verify": ("oracle.verify_labelled_count", "oracle.verify_moments"),
    "moments": ("moments.moment_report",),
}


def layer_metrics(tr: Tracer, ops: list[Op], cycles: int, counts: dict) -> dict:
    total: dict[str, float] = defaultdict(float)
    per_op: dict[tuple[str, int], float] = defaultdict(float)
    for name, op_id, seconds in tr.self_times():
        total[name] += seconds
    for name, start, end, _, op_id in tr.spans:
        per_op[name, op_id] += end - start

    def over(name: str, units: float, scale: float = 1.0) -> float:
        return scale * total[name] / units if units else 0.0

    mc = [op for op in ops if op.command == "mc"]
    samples = sum(op.samples for op in mc)
    draws = sum(op.samples * (op.n - 2) for op in mc)
    vertices = sum(op.samples * op.n for op in mc)
    verify = [op for op in ops if op.command == "verify"]
    trees = sum(op.n ** (op.n - 2) for op in verify)
    vertices_counted = vertices + sum(op.n ** (op.n - 1) for op in verify)
    ladder_cycles = cycles if any(op.command == "moments" for op in ops) else 0
    pooled = [i for i, op in enumerate(ops) if op.workers > 1]
    cli_times = [per_op["cli.main", i] for i in pooled]

    values = {
        "montecarlo.rng_us_per_draw": over("montecarlo.randints", draws, 1e6),
        "montecarlo.estimate_us_per_sample":
            over("montecarlo.estimate_pattern_stats", samples, 1e6),
        "montecarlo.fanout_efficiency": (
            total["montecarlo.estimate_pattern_stats@1"]
            / (2 * total["montecarlo.estimate_pattern_stats"])
            if pooled else 0.0),
        "montecarlo.first_pool_extra_s": (
            cli_times[0] - statistics.median(cli_times[1:])
            if len(cli_times) > 1 else 0.0),
        "trees.decode_us_per_vertex": over("trees.prufer_decode", vertices, 1e6),
        "trees.iter_us_per_tree": over("trees.iter_trees", trees, 1e6),
        "patterns.count_us_per_vertex":
            over("patterns.count_patterns", vertices_counted, 1e6),
        "isomorphism.pattern_build_s": statistics.median(
            per_op["isomorphism.pattern_from_name", i] for i in range(len(ops))),
        "oracle.verify_us_per_tree": over("oracle.verify_moments", trees, 1e6),
        "oracle.labelled_count_s": over("oracle.verify_labelled_count",
                                        len(verify)),
        "moments.mean_s": over("moments.mean_pattern_count", ladder_cycles),
        "moments.second_moment_s":
            over("moments.second_moment_pattern_count", ladder_cycles),
        "moments.normalise_s": (
            (total["moments.moment_report"] - total["moments.mean_pattern_count"]
             - total["moments.second_moment_pattern_count"]) / ladder_cycles
            if ladder_cycles else 0.0),
        "moments.render_s": over("moments.render", ladder_cycles),
        "cli.overhead_s": statistics.median(
            per_op["cli.main", i]
            - sum(per_op[name, i] for name in LIBRARY_SPANS[op.command])
            for i, op in enumerate(ops)),
        "trace.overhead_ratio": statistics.median(
            per_op["op", i] / per_op["cli.main", i] for i in range(len(ops))),
    }
    values.update({name: counts[name] for name in COUNTERS})
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}


def traced_run(workload: Workload, seed: int, seconds: float) -> dict:
    """Run the op sequence again, replaying each op through the public
    functions of every module with a span around each call."""
    tr = Tracer()
    ops: list[Op] = []
    cycle_counts: list[dict] = []

    def run_cycle(cycle_ops: list[Op]) -> list[str]:
        counts: dict = defaultdict(int)
        cycle_counts.append(counts)
        out = []
        for op in cycle_ops:
            tr.op = len(ops)
            ops.append(op)
            with tr.span("op"):
                with tr.span("cli.main"):
                    outcome = run_op(op)
                out.append(TRACE_OP[op.command](tr, op, outcome, counts))
        return out

    verdicts, wall = run_cycles(workload, seed, seconds, MIN_TRACED_OPS,
                                run_cycle)
    cycles = len(cycle_counts)
    failed = [v for v in verdicts if v != "ok"]
    print(f"{workload.name} traced: {len(ops)} ops, {cycles} cycles in "
          f"{wall:.3f} s, {len(tr.spans)} spans")
    for reason in sorted(set(failed)):
        print(f"  {failed.count(reason)} failed: {reason[:200]}")
    write_trace(workload, seed, tr)
    return {
        "correct": all(v == "ok" or v.startswith(RAISED) for v in verdicts),
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": layer_metrics(tr, ops, cycles, cycle_counts[0]),
    }


# ----------------------------------------------------------------- output

def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without starting git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def write_trace(workload: Workload, seed: int, tr: Tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
    t0 = tr.spans[0][1] if tr.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload.name, "seed": seed,
                             "env": environment(),
                             "fields": ["name", "start_s", "end_s",
                                        "parent", "op"]}) + "\n")
        for name, start, end, parent, op in tr.spans:
            fh.write(json.dumps([name, start - t0, end - t0, parent, op]) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = traced_run if args.trace else untraced_run
    print("env " + json.dumps(environment()))
    results = {}
    for name in names:
        results[name] = run(WORKLOADS[name], args.seed, args.seconds)
        print_metrics(results[name]["metrics"])
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
